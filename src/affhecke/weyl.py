"""Extended affine Weyl group of GL_n as periodic bijections of the integers.

An element w is stored by its window (w(1), ..., w(n)) and extended to all
of Z by w(i + kn) = w(i) + kn.  Composition is functional: (u w)(x) = u(w(x)).
Under this convention rho^-1 s_i rho = s_{i-1} (indices mod n).
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, Sequence

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
            raise ValueError("rank must be positive")
        window = tuple(window)
        if len(window) != n:
            raise ValueError("window must have length n=%d" % n)
        if len({x % n for x in window}) != n:
            raise ValueError("window residues mod n must be distinct: %r" % (window,))
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
        window = []
        for j in range(1, n + 1):
            if j % n == i % n:
                window.append(j + 1)
            elif j % n == (i + 1) % n:
                window.append(j - 1)
            else:
                window.append(j)
        return AffinePerm(n, window)

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
        if i == 0:
            return self.window[n - 1] - n > self.window[0]
        return self.window[i - 1] > self.window[i]

    def has_left_descent(self, i: int) -> bool:
        return self.inverse().has_right_descent(i)

    # -- positivity -----------------------------------------------------------

    def is_positive(self) -> bool:
        """True iff all window values are <= n, i.e. the translation part is <= 0."""
        return all(x <= self.n for x in self.window)

    # -- words ------------------------------------------------------------------

    def reduced_word(self) -> "Word":
        """A word s_{i_1} ... s_{i_k} rho^z composing to w, k = l(w), z = degree(w).

        Strips left descents of w as right descents on the window of w^-1.
        """
        n = self.n
        t = list(self.inverse().window)
        off = [n] + [0] * (n - 1)  # at i = 0, t[i-1] - n is w^-1(0)
        letters: list[object] = []
        while True:
            for i in range(n):
                if t[i - 1] - off[i] > t[i]:
                    t[i - 1], t[i] = t[i] + off[i], t[i - 1] - off[i]
                    letters.append(i)
                    break
            else:
                break
        z = (n * (n + 1) // 2 - sum(t)) // n
        if t != list(range(1 - z, n + 1 - z)):
            raise InternalInvariantError("descent stripping did not end at a rho power")
        letters.extend([RHO] * z if z >= 0 else [RHO_INV] * (-z))
        return Word(n, letters)

    def positive_reduced_word(self) -> "Word":
        """A word over {s_1..s_{n-1}, rho^-1} only, with l(w) Coxeter letters.

        Repeatedly strips right descents on the window; a sole descent at 0
        is traded for a trailing [s_{n-1}, rho^-1] via s_0 = rho s_{n-1} rho^-1.
        """
        if not self.is_positive():
            raise NotPositiveError("%s has a window value above n" % self)
        n = self.n
        t = list(self.window)
        stripped: list[object] = []  # the suffix, read from its end
        while True:
            for i in range(1, n):
                if t[i - 1] > t[i]:
                    t[i - 1], t[i] = t[i], t[i - 1]
                    stripped.append(i)
                    break
            else:
                if t[-1] - n > t[0]:
                    stripped += [RHO_INV, n - 1]
                    t = t[1:-1] + [t[0] + n, t[-1]]  # the window of w s_0 rho
                else:
                    break
        z = (sum(t) - n * (n + 1) // 2) // n
        if z > 0 or t != list(range(1 + z, n + 1 + z)):
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
    # s of w each step, from x too where it is a descent of x
    n = w.n
    while x != w:
        if x.length() >= w.length():
            return False
        i = next((i for i in range(n) if w.has_left_descent(i)), None)
        if i is None:
            raise InternalInvariantError("positive-length element without left descent")
        si = AffinePerm.s(n, i)
        if x.has_left_descent(i):
            x = si.compose(x)
        w = si.compose(w)
    return True


class Word:
    """Sequence over the alphabet {s_0..s_{n-1}, rho, rho^-1}.

    Coxeter letters are stored as ints, rho letters as the strings "r", "r-".
    """

    __slots__ = ("n", "letters")

    def __init__(self, n: int, letters: Iterable[object]):
        letters = tuple(letters)
        for a in letters:
            if isinstance(a, int):
                if not 0 <= a <= n - 1:
                    raise ValueError("letter s%d out of range for n=%d" % (a, n))
            elif a not in (RHO, RHO_INV):
                raise ValueError("unknown letter %r" % (a,))
        self.n = n
        self.letters = letters

    def to_perm(self) -> AffinePerm:
        out = AffinePerm.identity(self.n)
        for a in self.letters:
            if a == RHO:
                step = AffinePerm.rho(self.n)
            elif a == RHO_INV:
                step = AffinePerm.rho(self.n, -1)
            else:
                step = AffinePerm.s(self.n, a)
            out = out.compose(step)
        return out

    def alphabet(self) -> set:
        return set(self.letters)

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
        names = {a: "s%d" % a for a in range(self.n)}
        names.update({RHO: RHO, RHO_INV: RHO_INV})
        return " ".join(map(names.__getitem__, self.letters))

    def __repr__(self):
        return "Word(%d, %r)" % (self.n, list(self.letters))

    @staticmethod
    def parse(n: int, text: str) -> "Word":
        letters: list[object] = []
        for tok in text.split():
            if tok == RHO or tok == RHO_INV:
                letters.append(tok)
            elif tok.startswith("s") and tok[1:].isdigit():
                letters.append(int(tok[1:]))
            else:
                raise ElementParseError("bad word letter %r" % tok)
        return Word(n, letters)


# -- composition and partition utilities --------------------------------------


def dom(mu: Sequence[int]) -> tuple[int, ...]:
    """Weakly decreasing rearrangement of a nonnegative composition."""
    mu = tuple(mu)
    if any(x < 0 for x in mu):
        raise NegativeEntryError("dom requires nonnegative parts, got %r" % (mu,))
    return tuple(sorted(mu, reverse=True))


def reverse(lam: Sequence[int]) -> tuple[int, ...]:
    return tuple(reversed(tuple(lam)))


def is_partition(lam: Sequence[int]) -> bool:
    lam = tuple(lam)
    return all(x >= 0 for x in lam) and all(
        lam[i] >= lam[i + 1] for i in range(len(lam) - 1)
    )


def check_partition(lam: Sequence[int]) -> tuple[int, ...]:
    lam = tuple(lam)
    if any(x < 0 for x in lam):
        raise NegativeEntryError("partition parts must be nonnegative: %r" % (lam,))
    if not is_partition(lam):
        raise NonDominantError("parts must be weakly decreasing: %r" % (lam,))
    return lam


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative ints summing to `total` (the set Lambda)."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def omega(n: int, d: int) -> tuple[int, ...]:
    """The composition (1,...,1,0,...,0) of n with d parts; needs d >= n."""
    if d < n:
        raise ValueError("omega(n,d) requires d >= n")
    return (1,) * n + (0,) * (d - n)


# -- small enumerations (exhaustive test fodder) -------------------------------


def finite_permutations(n: int) -> Iterator[AffinePerm]:
    for sigma in itertools.permutations(range(1, n + 1)):
        yield AffinePerm(n, sigma)


@functools.lru_cache(maxsize=32)
def coxeter_ball(n: int, max_length: int) -> tuple[AffinePerm, ...]:
    """All degree-0 elements of length <= max_length (BFS over s_0..s_{n-1})."""
    seen = {AffinePerm.identity(n)}
    frontier = list(seen)
    gens = [AffinePerm.s(n, i) for i in range(n)]
    for _ in range(max_length):
        nxt = []
        for w in frontier:
            lw = w.length()
            for g in gens:
                u = w.compose(g)
                if u not in seen and u.length() == lw + 1:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return tuple(sorted(seen, key=lambda w: (w.length(), w.window)))


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
