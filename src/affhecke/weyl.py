"""Extended affine Weyl group of GL_n as periodic bijections of the integers.

An element w is stored by its window (w(1), ..., w(n)) and extended to all
of Z by w(i + kn) = w(i) + kn.  Composition is functional: (u w)(x) = u(w(x)).
Under this convention rho^-1 s_i rho = s_{i-1} (indices mod n).

Every walk over letters reads one letter action, ``letter_action``: on a
window, s_i (i >= 1) swaps two slots, s_0 swaps the end slots and moves
both values by +-n, rho^{+-1} rotates the window and moves one value by
+-n, and a right descent is one comparison.  Left steps walk the window of
the inverse, where a left descent of w is a right descent of w^-1.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Iterable, Iterator, Sequence

from .errors import (
    ElementParseError,
    InternalInvariantError,
    NegativeEntryError,
    NonDominantError,
    NotPositiveError,
    RankMismatchError,
    ResourceLimitError,
)

RHO = "r"
RHO_INV = "r-"
MAX_POSITIVE_CANDIDATES = 100_000


class AffinePerm:
    """Window-notation element of the extended affine Weyl group."""

    __slots__ = ("n", "window", "_hash", "_length")

    def __init__(self, n: int, window: Sequence[int]):
        if n < 1:
            raise ElementParseError("rank must be positive")
        window = tuple(window)
        if len(window) != n:
            raise ElementParseError("window must have length n=%d" % n)
        if len({x % n for x in window}) != n:
            raise ElementParseError("window residues mod n must be distinct: %r" % (window,))
        self.n = n
        self.window = window
        self._hash = None
        self._length = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def _trusted(cls, n: int, window: tuple) -> "AffinePerm":
        """An element from a window tuple already known to be valid."""
        out = object.__new__(cls)
        out.n = n
        out.window = window
        out._hash = None
        out._length = None
        return out

    @staticmethod
    def identity(n: int) -> "AffinePerm":
        return AffinePerm(n, range(1, n + 1))

    @staticmethod
    def s(n: int, i: int) -> "AffinePerm":
        """Simple reflection s_i, 0 <= i <= n-1; s_0 is the affine one."""
        if n < 2:
            raise ValueError("no simple reflections for n < 2")
        if not 0 <= i <= n - 1:
            raise IndexError("reflection index %d out of range [0,%d]" % (i, n - 1))
        return AffinePerm(n, letter_action(n, i)[0](tuple(range(1, n + 1))))

    @staticmethod
    def rho(n: int, z: int = 1) -> "AffinePerm":
        return AffinePerm(n, range(1 + z, n + 1 + z))

    @staticmethod
    def from_pair(sigma: Sequence[int], lam: Sequence[int]) -> "AffinePerm":
        """Element with w(i) = sigma(i) + n*lam_{sigma(i)} (translation after permutation)."""
        n = len(sigma)
        if sorted(sigma) != list(range(1, n + 1)):
            raise ValueError("sigma must be a permutation of 1..n")
        if len(lam) != n:
            raise ValueError("lam must have length n")
        return AffinePerm(n, [sigma[i] + n * lam[sigma[i] - 1] for i in range(n)])

    @staticmethod
    def translation(lam: Sequence[int]) -> "AffinePerm":
        return AffinePerm.from_pair(tuple(range(1, len(lam) + 1)), lam)

    # -- the bijection of Z -------------------------------------------------

    def apply(self, x: int) -> int:
        r = (x - 1) % self.n + 1
        return self.window[r - 1] + (x - r)

    def compose(self, other: "AffinePerm") -> "AffinePerm":
        """Functional composite self o other."""
        if self.n != other.n:
            raise RankMismatchError("ranks differ: %d vs %d" % (self.n, other.n))
        return AffinePerm(self.n, [self.apply(x) for x in other.window])

    __mul__ = compose

    def inverse(self) -> "AffinePerm":
        inv = [0] * self.n
        for i, wi in enumerate(self.window, start=1):
            r = (wi - 1) % self.n + 1
            inv[r - 1] = i + (r - wi)
        return AffinePerm(self.n, inv)

    def __eq__(self, other):
        if not isinstance(other, AffinePerm):
            return NotImplemented
        return self.n == other.n and self.window == other.window

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.window))
        return self._hash

    def __repr__(self):
        return "AffinePerm(%d, %r)" % (self.n, list(self.window))

    def __str__(self):
        return "w[%s]" % ",".join(str(x) for x in self.window)

    # -- pair form ----------------------------------------------------------

    def to_pair(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The unique (sigma, lam) with w(i) = sigma(i) + n*lam_{sigma(i)}."""
        n = self.n
        sigma = []
        lam = [0] * n
        for wi in self.window:
            r = (wi - 1) % n + 1
            sigma.append(r)
            lam[r - 1] = (wi - r) // n
        return tuple(sigma), tuple(lam)

    # -- length, degree, descents -------------------------------------------

    def length(self) -> int:
        """Number of inversions (i, j), 1 <= i <= n, i < j in Z, w(i) > w(j);
        it is the sum over 1 <= i < j <= n of |floor((w(j) - w(i)) / n)| (Shi)."""
        if self._length is not None:
            return self._length
        n = self.n
        self._length = sum(abs((b - a) // n) for a, b in itertools.combinations(self.window, 2))
        return self._length

    def degree(self) -> int:
        n = self.n
        return (sum(self.window) - n * (n + 1) // 2) // n

    def has_right_descent(self, i: int) -> bool:
        """True iff w(i) > w(i+1), reading w(0) = w(n) - n; equals l(w s_i) < l(w)."""
        n = self.n
        if not 0 <= i <= n - 1:
            raise IndexError("descent index %d out of range [0,%d]" % (i, n - 1))
        a, b, off = letter_action(n, i)[1]
        return self.window[a] - off > self.window[b]

    # -- positivity -----------------------------------------------------------

    def is_positive(self) -> bool:
        """True iff all window values are <= n, i.e. the translation part is <= 0."""
        return all(x <= self.n for x in self.window)

    # -- words ------------------------------------------------------------------

    def reduced_word(self) -> "Word":
        """A word s_{i_1} ... s_{i_k} rho^z composing to w, k = l(w), z = degree(w).

        Strips left descents of w as right descents on the window of w^-1,
        at most l(w) of them.
        """
        n = self.n
        t = self.inverse().window
        steps = [(i, *letter_action(n, i)) for i in range(n)]
        letters: list[object] = []
        for _ in range(self.length()):
            for i, move, (a, b, off) in steps:
                if t[a] - off > t[b]:
                    t = move(t)
                    letters.append(i)
                    break
            else:
                break
        z = (n * (n + 1) // 2 - sum(t)) // n
        if t != tuple(range(1 - z, n + 1 - z)):
            raise InternalInvariantError("descent stripping did not end at a rho power")
        letters.extend([RHO] * z if z >= 0 else [RHO_INV] * (-z))
        return Word(n, letters)

    def positive_reduced_word(self) -> "Word":
        """A word over {s_1..s_{n-1}, rho^-1} only, with l(w) Coxeter letters.

        Strips right descents on the window, at most l(w) of them; a sole
        descent at 0 is traded for a trailing [s_{n-1}, rho^-1] via
        s_0 = rho s_{n-1} rho^-1, that is, the s_0 move followed by the rho
        move.
        """
        if not self.is_positive():
            raise NotPositiveError("%s has a window value above n" % self)
        n = self.n
        t = self.window
        rho = letter_action(n, RHO)[0]
        steps = [(i, *letter_action(n, i)) for i in (*range(1, n), 0)]
        stripped: list[object] = []  # the suffix, read from its end
        for _ in range(self.length()):
            for i, move, (a, b, off) in steps:
                if t[a] - off > t[b]:
                    t = move(t)
                    if i:
                        stripped.append(i)
                    else:
                        stripped += [RHO_INV, n - 1]
                        t = rho(t)  # the window of w s_0 rho
                    break
            else:
                break
        z = (sum(t) - n * (n + 1) // 2) // n
        if z > 0 or t != tuple(range(1 + z, n + 1 + z)):
            raise InternalInvariantError(
                "positive decomposition of %s ended at rho^%d" % (self, z)
            )
        return Word(n, [RHO_INV] * (-z) + stripped[::-1])

    # -- Bruhat order -----------------------------------------------------------

    def bruhat_leq(self, other: "AffinePerm") -> bool:
        """Bruhat comparison inside the degree coset (False across degrees)."""
        if self.n != other.n:
            raise RankMismatchError("ranks differ: %d vs %d" % (self.n, other.n))
        z = self.degree()
        if z != other.degree():
            return False
        shift = AffinePerm.rho(self.n, -z)
        return _bruhat_leq_coxeter(self.compose(shift), other.compose(shift))


@functools.lru_cache(maxsize=4096)
def _bruhat_leq_coxeter(x: AffinePerm, w: AffinePerm) -> bool:
    # lifting property on degree-0 (Coxeter) elements: strip a left descent
    # s of w each step, from x too where it is a descent of x; s u is read
    # as the right step u^-1 s on inverse windows
    n = w.n
    steps = [letter_action(n, i) for i in range(n)]
    xs, ws = x.inverse().window, w.inverse().window
    lx, lw = x.length(), w.length()
    while xs != ws:
        if lx >= lw:
            return False
        for move, (a, b, off) in steps:
            if ws[a] - off > ws[b]:
                break
        else:
            raise InternalInvariantError("positive-length element without left descent")
        if xs[a] - off > xs[b]:
            xs, lx = move(xs), lx - 1
        ws, lw = move(ws), lw - 1
    return True


@functools.lru_cache(maxsize=256)
def letter_action(n: int, letter) -> tuple:
    """(move, descent) for one letter at rank n (n >= 2 for a Coxeter letter).

    ``move`` sends the window tuple of w to the window tuple of w*letter.
    For a Coxeter letter, ``descent`` is (a, b, off): the letter is a right
    descent of w iff window[a] - off > window[b]; for a rho letter it is None.
    """
    if letter == RHO:
        return (lambda t: t[1:] + (t[0] + n,)), None
    if letter == RHO_INV:
        return (lambda t: (t[-1] - n,) + t[:-1]), None
    if letter == 0:
        return (lambda t: (t[-1] - n,) + t[1:-1] + (t[0] + n,)), (n - 1, 0, n)
    order = list(range(n))
    order[letter - 1], order[letter] = letter, letter - 1
    return operator.itemgetter(*order), (letter - 1, letter, 0)


class Word:
    """Sequence over the alphabet {s_0..s_{n-1}, rho, rho^-1}.

    Coxeter letters are stored as ints, rho letters as the strings "r", "r-".
    """

    __slots__ = ("n", "letters")

    def __init__(self, n: int, letters: Iterable[object]):
        letters = tuple(letters)
        for a in letters:
            if isinstance(a, int):
                if n < 2 or not 0 <= a <= n - 1:  # no simple reflections for n < 2
                    raise ValueError("letter s%d out of range for n=%d" % (a, n))
            elif a not in (RHO, RHO_INV):
                raise ValueError("unknown letter %r" % (a,))
        self.n = n
        self.letters = letters

    def to_perm(self) -> AffinePerm:
        t = tuple(range(1, self.n + 1))
        for a in self.letters:
            t = letter_action(self.n, a)[0](t)
        return AffinePerm(self.n, t)

    def __iter__(self) -> Iterator[object]:
        return iter(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return self.n == other.n and self.letters == other.letters

    def __hash__(self):
        return hash((self.n, self.letters))

    def __str__(self):
        return " ".join("s%d" % a if isinstance(a, int) else a for a in self.letters)

    def __repr__(self):
        return "Word(%d, %r)" % (self.n, list(self.letters))

    @staticmethod
    def parse(n: int, text: str) -> "Word":
        letters: list[object] = []
        for tok in text.split():
            if tok == RHO or tok == RHO_INV:
                letters.append(tok)
                continue
            digits, width = tok[1:], len(str(n - 1))
            if tok[:1] != "s" or not digits.isdecimal():
                raise ElementParseError("bad word letter %r" % tok)
            # int() reads the last ``width`` digits only; a nonzero digit before them is out of range
            if n < 2 or any(map(int, digits[:-width])) or int(digits[-width:]) > n - 1:
                raise ElementParseError("letter %s out of range for n=%d" % (tok, n))
            letters.append(int(digits[-width:]))
        return Word(n, letters)


# -- composition and partition utilities --------------------------------------


def dom(mu: Sequence[int]) -> tuple[int, ...]:
    """Weakly decreasing rearrangement of a nonnegative composition."""
    mu = tuple(mu)
    if any(x < 0 for x in mu):
        raise NegativeEntryError("dom requires nonnegative parts, got %r" % (mu,))
    return tuple(sorted(mu, reverse=True))


def check_partition(lam: Sequence[int]) -> tuple[int, ...]:
    lam = tuple(lam)
    if any(x < 0 for x in lam):
        raise NegativeEntryError("partition parts must be nonnegative: %r" % (lam,))
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise NonDominantError("parts must be weakly decreasing: %r" % (lam,))
    return lam


# -- small enumerations (exhaustive test fodder) -------------------------------


def finite_permutations(n: int) -> Iterator[AffinePerm]:
    for sigma in itertools.permutations(range(1, n + 1)):
        yield AffinePerm(n, sigma)


@functools.lru_cache(maxsize=32)
def coxeter_ball(n: int, max_length: int, letters=None) -> tuple[AffinePerm, ...]:
    """All elements of length <= max_length generated by ``letters`` (a tuple
    of Coxeter letters, by default s_0..s_{n-1}: the degree-0 elements), by
    (length, window).  A BFS that steps each window along the letters that
    are not right descents, so layer k holds the elements of length k."""
    e = AffinePerm.identity(n)
    if letters is None:
        letters = range(n) if n > 1 else ()
    steps = [letter_action(n, i) for i in letters]
    layers = [[e.window]]
    seen = {e.window}
    for _ in range(max_length):
        nxt = []
        for t in layers[-1]:
            for move, (a, b, off) in steps:
                if t[a] - off > t[b]:
                    continue
                u = move(t)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        layers.append(nxt)
    return tuple(AffinePerm._trusted(n, t) for layer in layers for t in sorted(layer))


def positive_elements(n: int, max_length: int, min_degree: int) -> list[AffinePerm]:
    """All positive w with l(w) <= max_length and degree(w) >= min_degree.

    The n! (depth + 1)^n candidates are counted first; ResourceLimitError
    if they exceed MAX_POSITIVE_CANDIDATES.
    """
    if min_degree > 0:
        return []
    depth = -min_degree
    count = 1
    for k in range(1, n + 1):
        count *= k * (depth + 1)
        if count > MAX_POSITIVE_CANDIDATES:
            raise ResourceLimitError(
                "more than %d candidates for n=%d, depth %d" % (MAX_POSITIVE_CANDIDATES, n, depth)
            )
    out = []
    for sigma in itertools.permutations(range(1, n + 1)):
        for lam in itertools.product(range(-depth, 1), repeat=n):
            if sum(lam) < min_degree:
                continue
            w = AffinePerm.from_pair(sigma, lam)
            if w.length() <= max_length:
                out.append(w)
    return sorted(out, key=lambda w: (w.length(), -w.degree(), w.window))
