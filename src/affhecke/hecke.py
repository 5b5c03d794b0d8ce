"""The affine Hecke algebra over integer Laurent polynomials in the T-basis.

Elements are finitely supported maps AffinePerm -> LaurentPoly.  The product
is the bilinear extension of
    T_w T_{s_i} = T_{w s_i}                       if l(w s_i) > l(w),
    T_w T_{s_i} = (v^-2 - 1) T_w + v^-2 T_{w s_i}  otherwise,
    T_w T_{rho^{+-1}} = T_{w rho^{+-1}},
with a general right factor expanded along one of its reduced words.  The
inverse T_w^-1 takes one right step per letter of a reduced word of w, read
from its end: by T_{s_i}^-1 = v^2 T_{s_i} + (v^2-1), or by T_{rho^{-+1}}.

The Bernstein elements form the commuting family
    X_1 = v^{1-n} T_1 T_2 ... T_{n-1} T_{rho^-1},
    X_{i+1} = v^2 T_i^-1 X_i T_i^-1   (equivalently T_i X_{i+1} T_i = v^2 X_i),
whose monomials at dominant exponents collapse to single T-terms supported
on translations.  Only X_1 is itself a single term; every X_i has positive
support.

Letter steps in both directions, products, inverses and the bar involution
all run in one packed kernel.  An operation packs its operands once, as
dicts from window tuple to one int per coefficient, sum_e c_e 2^(B (e - e0))
with balanced digits (``laurent.kronecker_pack``), and unpacks its result
once.  On windows, s_i (i >= 1) swaps two slots,
s_0 and rho^{+-1} move one value by +-n, and a descent is one comparison.
On coefficients, v^2 and v^2 - 1 are a shift and a shift with a
subtraction, and a coefficient product is one int product.  The base e0
is the lowest exponent of the operands; a step by T_{s_i} lowers it by 2,
so the kernel only ever shifts left and never divides.  The slot width B
comes from a bound on every coefficient the operation can produce,
computed from its operands before packing: a Coxeter letter step at most
triples the largest coefficient, and a product with a coefficient c
multiplies the bound by the 1-norm of c.  Every operation sizes its own
slots this way, so one whose operands have outgrown the last operation's
slots packs wider; nothing is ever truncated.  Packing is a ring map
Z[v] -> Z, so the ints stay exact however large intermediate digits grow,
and only the result has to fit its slots to read back exactly.

The bar involution (semilinear over v -> v^-1, T_w -> (T_{w^-1})^-1) and
``invert_t`` (T_w^-1 = (T_{x^-1})^-1 at x = w^-1) share those inverse
steps.  The partial product for a suffix of the reduced word of x^-1 does
not depend on x, and the suffix is itself the reduced word of u^-1 for one
element u (x with the stripped letters removed on the right), so the
window of u names it.  One module-level table, ``_TABLE``, keeps these
inverses for every call, by rank, slot-width bucket (the call's width
rounded up to a power of two) and window of u; ``BAR_TABLE_CAP`` bounds
it and ``clear_bar_table()`` frees it.  A term whose inverse is stored
costs no letter step, no inverse permutation and no barred polynomial:
its coefficient is packed barred straight from its exponents
(``laurent.kronecker_pack_bar``), and its contribution is one int product
per term of the inverse.  Any other term runs the inverse letter steps in
front of its longest stored suffix and stores each result.  A stored
inverse is the exact value of its polynomials at v = 2^B whichever call
computed it, so a result reads back exactly once its coefficients fit
B-bit slots; the bounds in ``bar_involution`` and ``invert_t`` guarantee
that for the call's width, and the bucket's B is at least as wide.

The canonical basis runs on the same form.  ``kl_step`` packs b and each
correction b_x once, at one base and a width from the bound 4 height(b) +
sum |mu| height(b_x), takes one letter step, subtracts the corrections as
ints and unpacks once, reusing the operands' AffinePerm objects.
``is_bar_invariant`` compares the bar loop's packed sum with the element
packed at the same base -top and width.  That is exact: bar(a) has no
exponent below -top, and the bound covers every coefficient of a.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable, Mapping, Sequence

from .errors import NegativeEntryError, RankMismatchError
from .laurent import (
    ONE,
    Q,
    V2,
    LaurentPoly,
    kronecker_pack,
    kronecker_pack_bar,
    kronecker_unpack,
    slot_width,
    v_power,
)
from .weyl import RHO, RHO_INV, AffinePerm, Word


@functools.lru_cache(maxsize=4096)
def _reduced_letters(w: AffinePerm) -> tuple:
    return w.reduced_word().letters


class HeckeElt:
    """Finitely supported LaurentPoly-combination of T_w basis elements."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[AffinePerm, LaurentPoly] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[AffinePerm, LaurentPoly] = {}
        for w, c in items:
            if w.n != n:
                raise RankMismatchError("term %s has rank %d, element has %d" % (w, w.n, n))
            if not isinstance(c, LaurentPoly):
                c = LaurentPoly({0: c})
            if c:
                prev = clean.get(w)
                c = prev + c if prev is not None else c
                if c:
                    clean[w] = c
                else:
                    del clean[w]
        self.n = n
        self.terms = clean

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> set[AffinePerm]:
        return set(self.terms)

    def coeff(self, w: AffinePerm) -> LaurentPoly:
        return self.terms.get(w, LaurentPoly())

    def sorted_terms(self) -> list[tuple[AffinePerm, LaurentPoly]]:
        return sorted(self.terms.items(), key=lambda t: t[0].window)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, HeckeElt):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # -- module structure ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, HeckeElt):
            return NotImplemented
        if self.n != other.n:
            raise RankMismatchError("ranks differ: %d vs %d" % (self.n, other.n))
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w)
            s = c if s is None else s + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return _raw(self.n, out)

    def __sub__(self, other):
        if not isinstance(other, HeckeElt):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return _raw(self.n, {w: -c for w, c in self.terms.items()})

    def scale(self, c) -> "HeckeElt":
        if not isinstance(c, LaurentPoly):
            c = LaurentPoly({0: c})
        if not c:
            return HeckeElt(self.n)
        return _raw(self.n, {w: cw * c for w, cw in self.terms.items()})

    def __rmul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return self.scale(other)
        return NotImplemented

    # -- algebra structure --------------------------------------------------------

    def right_letter(self, letter) -> "HeckeElt":
        """Multiply on the right by T of a single generator letter."""
        return self * t_basis(Word(self.n, (letter,)).to_perm())

    def right_letter_inverse(self, letter) -> "HeckeElt":
        """Multiply on the right by the inverse of T of a single generator letter.

        T_w T_{s_i}^-1 = T_{w s_i} if l(w s_i) < l(w), and otherwise
        v^2 T_{w s_i} + (v^2-1) T_w, from T_{s_i}^-1 = v^2 T_{s_i} + (v^2-1).
        """
        return self * invert_t(Word(self.n, (letter,)).to_perm())

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return self.scale(other)
        if not isinstance(other, HeckeElt):
            return NotImplemented
        if self.n != other.n:
            raise RankMismatchError("ranks differ: %d vs %d" % (self.n, other.n))
        n = self.n
        if not self.terms or not other.terms:
            return HeckeElt(n)
        # self T_w runs the letters of w from the packed self; every result
        # is brought to the common base by shifting its coefficient factor
        words = [_reduced_letters(w) for w in other.terms]
        lengths = [_coxeter_count(letters) for letters in words]
        top = max(lengths)
        width = slot_width(_product_bound(self, other, lengths))
        shift = 2 * width
        base_a, base_b = _valuation(self), _valuation(other)
        packed = {w.window: kronecker_pack(c, base_a, width) for w, c in self.terms.items()}
        total: dict[tuple, int] = {}
        get = total.get
        for letters, c, k in zip(words, other.terms.values(), lengths):
            cur = packed
            for letter in letters:
                cur = _step(cur, n, letter, shift)
            factor = kronecker_pack(c, base_b, width) << (shift * (top - k))
            for t, p in cur.items():
                total[t] = get(t, 0) + p * factor
        return _unpack(n, total.items(), base_a + base_b - 2 * top, width, self.terms)

    # -- rendering -----------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        order = sorted(self.terms.items(), key=lambda t: (-t[0].length(), t[0].window))
        for w, c in order:
            basis = "T[%s]" % w.reduced_word()
            if c == ONE:
                parts.append(basis)
            elif c == -ONE:
                parts.append("-" + basis)
            elif c.is_monomial():
                parts.append("%s*%s" % (c, basis))
            else:
                parts.append("(%s)*%s" % (c, basis))
        text = parts[0]
        for p in parts[1:]:
            text += " - " + p[1:] if p.startswith("-") else " + " + p
        return text

    def __repr__(self):
        return "HeckeElt(%d, %s)" % (self.n, dict(self.sorted_terms()))

    def to_json(self) -> list[dict]:
        return [
            {"window": list(w.window), "coeffs": c.to_json()}
            for w, c in self.sorted_terms()
        ]

    @staticmethod
    def from_json(n: int, data: Sequence[Mapping]) -> "HeckeElt":
        return HeckeElt(
            n,
            [
                (AffinePerm(n, rec["window"]), LaurentPoly.from_json(rec["coeffs"]))
                for rec in data
            ],
        )


def _raw(n: int, terms: dict[AffinePerm, LaurentPoly]) -> HeckeElt:
    out = HeckeElt.__new__(HeckeElt)
    out.n = n
    out.terms = {w: c for w, c in terms.items() if c}
    return out


# -- the packed kernel -----------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _window_step(n: int, letter) -> tuple:
    """(move, descent) for one letter at rank n.

    ``move`` sends the window of w to the window of w*letter.  For a Coxeter
    letter, ``descent`` is (a, b, off): the letter is a right descent of w
    iff window[a] - off > window[b]; for a rho letter it is None.
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


def _step(terms: dict, n: int, letter, shift: int) -> dict:
    """Packed terms times T_letter; a Coxeter letter lowers the base by 2.

    Read at the lower base, an input coefficient p is p << shift, so
    T_w T_s = (q-1) T_w + q T_ws at a descent gives p - (p << shift) at w
    and p at ws, and T_w T_s = T_ws elsewhere gives p << shift at ws.
    """
    move, descent = _window_step(n, letter)
    if descent is None:
        return {move(t): p for t, p in terms.items()}
    a, b, off = descent
    out: dict[tuple, int] = {}
    get = out.get
    for t, p in terms.items():
        ts = move(t)
        if t[a] - off > t[b]:
            out[ts] = get(ts, 0) + p
            out[t] = get(t, 0) + p - (p << shift)
        else:
            out[ts] = get(ts, 0) + (p << shift)
    return out


def _step_inverse(terms: dict, n: int, letter, shift: int) -> dict:
    """Packed terms times T_letter^-1, base unchanged: T_ws at a descent,
    else v^2 T_ws + (v^2-1) T_w, i.e. p << shift at ws and (p << shift) - p at w."""
    if letter == RHO or letter == RHO_INV:
        return _step(terms, n, RHO_INV if letter == RHO else RHO, shift)
    move, (a, b, off) = _window_step(n, letter)
    out: dict[tuple, int] = {}
    get = out.get
    for t, p in terms.items():
        ts = move(t)
        if t[a] - off > t[b]:
            out[ts] = get(ts, 0) + p
        else:
            ps = p << shift
            out[ts] = get(ts, 0) + ps
            out[t] = get(t, 0) + ps - p
    return out


def _coxeter_count(letters: tuple) -> int:
    return len(letters) - letters.count(RHO) - letters.count(RHO_INV)


def _product_bound(a: HeckeElt, b: HeckeElt, lengths: list[int]) -> int:
    """A bound on every coefficient of a*b, given l(w) for w in supp b in order."""
    return _height(a) * sum(3**k * c.norm1() for k, c in zip(lengths, b.terms.values()))


def product_cost(a: HeckeElt, b: HeckeElt) -> tuple[int, int]:
    """Bounds (letter-term steps, bits of one packed coefficient) for a*b.

    Running the l(w) letters of w at most doubles the terms at each step,
    so a*b takes at most |supp a| * sum over w in supp b of 2^(l(w)+1)
    steps.  A packed coefficient of a*b spans the exponents of a and b
    widened by 2 per letter, in slots of the width the product packs with.
    """
    if not a.terms or not b.terms:
        return 0, 0
    lengths = [w.length() for w in b.terms]
    steps = len(a.terms) * sum(2 ** (k + 1) for k in lengths)
    span = 1 + 2 * max(lengths)
    for elt in (a, b):
        span += max(c.degree() for c in elt.terms.values()) - _valuation(elt)
    return steps, span * slot_width(_product_bound(a, b, lengths))


def _window_steps(n: int, windows: set, letters: tuple, cap: int) -> int:
    """A bound on the letter-term steps of running ``letters`` by T or by
    T^-1 from terms on ``windows``, or a count above ``cap`` once it passes
    it.  Every Coxeter letter keeps both the moved and the unmoved windows,
    a superset of what either kernel keeps; by the subword property the
    windows after a prefix of a reduced word stay in windows·[e, prefix],
    so the count grows like the lower Bruhat intervals, not like 2^l."""
    steps = 0
    last = len(letters) - 1
    for i, letter in enumerate(letters):
        steps += len(windows)
        # a next letter steps at least as many windows, so stop before building them
        ahead = len(windows) if i < last else 0
        if steps + ahead > cap:
            return steps + ahead
        move, descent = _window_step(n, letter)
        moved = set(map(move, windows))
        if descent is not None:
            moved |= windows
        windows = moved
    return steps


def product_steps(a: HeckeElt, b: HeckeElt, cap: int) -> int:
    """At least the letter-term steps a*b takes, or a count above ``cap``
    once it passes it; a dry run on windows alone, coefficients never formed."""
    start = {w.window for w in a.terms}
    steps = 0
    for w in b.terms:
        steps += _window_steps(a.n, start, _reduced_letters(w), cap - steps)
        if steps > cap:
            break
    return steps


def inverse_steps(w: AffinePerm, cap: int) -> int:
    """As ``product_steps``, for the inverse letter steps of ``invert_t(w)``."""
    letters = tuple(reversed(_reduced_letters(w)))
    return _window_steps(w.n, {AffinePerm.identity(w.n).window}, letters, cap)


def _valuation(a: HeckeElt) -> int:
    return min((c.valuation() for c in a.terms.values()), default=0)


def _height(a: HeckeElt) -> int:
    return max((c.height() for c in a.terms.values()), default=0)


def _unpack(n: int, pairs: Iterable, base: int, width: int, known: Iterable[AffinePerm]) -> HeckeElt:
    """The element of the packed (window, int) pairs, reusing the AffinePerms in ``known``."""
    perms = {w.window: w for w in known}
    out = HeckeElt.__new__(HeckeElt)
    out.n = n
    out.terms = {
        perms.get(t) or AffinePerm._trusted(n, t): kronecker_unpack(p, base, width)
        for t, p in pairs
        if p
    }
    return out


def kl_step(b: HeckeElt, i: int, corrections: Sequence[tuple[HeckeElt, int]]) -> HeckeElt:
    """v b (T_{s_i} + 1) - sum of mu b_x over the pairs (b_x, mu), packed once
    (see the module docstring)."""
    n = b.n
    width = slot_width(4 * _height(b) + sum(abs(mu) * _height(x) for x, mu in corrections))
    shift = 2 * width
    base = min([_valuation(b) - 1] + [_valuation(x) for x, _ in corrections])
    packed = {w.window: kronecker_pack(c, base + 1, width) for w, c in b.terms.items()}
    out = _step(packed, n, i, shift)  # read at base - 1, so at base after the factor v
    get = out.get
    for t, p in packed.items():
        out[t] = get(t, 0) + (p << shift)
    known = list(b.terms)
    for x, mu in corrections:
        known += x.terms
        for w, c in x.terms.items():
            t = w.window
            out[t] = get(t, 0) - mu * kronecker_pack(c, base, width)
    return _unpack(n, out.items(), base, width, known)


BAR_TABLE_CAP = 1 << 15  # the most (window, int) pairs the shared inverse table holds


class _InverseTable:
    """The packed inverses (T_{u^-1})^-1 that ``invert_t`` and ``bar_involution`` share.

    ``buckets[n, width]`` maps the window of u to the inverse packed at that
    slot width, base 0, as parallel tuples (windows, ints); ``windows[n]``
    keeps one tuple per window met at rank n, so every inverse refers to the
    same window objects.  ``terms`` counts the stored (window, int) pairs
    and never passes ``BAR_TABLE_CAP``: an inverse that would pass it first
    clears the whole table, and one larger than the cap is not stored.
    """

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.buckets: dict = {}
        self.windows: dict = {}
        self.terms = 0

    def store(self, n: int, width: int, u: tuple, inv: dict) -> tuple:
        """Keep the packed inverse ``inv`` for the window u, first clearing the
        whole table if it would pass the cap (an inverse larger than the cap
        is not kept); returns it as (windows, ints)."""
        size = len(inv)
        if size > BAR_TABLE_CAP:
            return tuple(inv), tuple(inv.values())
        if self.terms + size > BAR_TABLE_CAP:
            self.clear()
        windows = self.windows.setdefault(n, {})
        entry = tuple(map(windows.setdefault, inv, inv)), tuple(inv.values())
        self.buckets.setdefault((n, width), {})[windows.setdefault(u, u)] = entry
        self.terms += size
        return entry


_TABLE = _InverseTable()


def clear_bar_table() -> None:
    """Free the inverses ``invert_t`` and ``bar_involution`` keep between calls."""
    _TABLE.clear()


def _bucket_width(bound: int) -> int:
    """The slot width for coefficients up to ``bound``, rounded up to a power
    of two: the table's bucket."""
    return 1 << (slot_width(bound) - 1).bit_length()


def _inverse(w: AffinePerm, width: int) -> tuple:
    """The packed (T_{w^-1})^-1 at ``width``, as (windows, ints).

    With letters the reduced word of w^-1, the suffix letters[j:] is the
    reduced word of u_j^-1, where u_0 = w and u_{j+1} = u_j letters[j]; its
    inverse T-product is the stored inverse of u_{j+1} times the inverse of
    T_{letters[j]}.  Only the steps in front of the longest stored suffix
    run, and each stores its result.
    """
    n = w.n
    table = _TABLE.buckets.get((n, width), {})
    letters = _reduced_letters(w.inverse())
    path = []
    t = w.window
    for letter in letters:
        if t in table:
            break
        path.append(t)
        t = _window_step(n, letter)[0](t)
    entry = table.get(t) or ((t,), (1,))  # only the empty suffix is never stored
    if path:
        inv = dict(zip(*entry))
        shift = 2 * width
        for j in range(len(path) - 1, -1, -1):
            inv = _step_inverse(inv, n, letters[j], shift)
            entry = _TABLE.store(n, width, path[j], inv)
    return entry


def _bar_packed(a: HeckeElt) -> tuple[dict, int, int]:
    """bar(a) packed as (window -> int, top, width), at base -top.

    Each term c T_w adds bar(c) (T_{w^-1})^-1, read from the shared table
    (see the module docstring).  The inverse for w has coefficients at most
    3^l(w); with the 1-norms of the coefficients that bounds the result and
    sets the slot width, rounded up to a power of two to pick the table's
    bucket.  A stored inverse is the exact value of its polynomials at
    v = 2^width, so reading the result back needs only that bound.
    """
    n = a.n
    width = _bucket_width(sum(3 ** w.length() * c.norm1() for w, c in a.terms.items()))
    top = max((c.degree() for c in a.terms.values()), default=0)
    table = _TABLE.buckets.setdefault((n, width), {})
    out: dict[tuple, int] = {}
    get = out.get
    for w, c in a.terms.items():
        windows, ints = table.get(w.window) or _inverse(w, width)
        factor = kronecker_pack_bar(c, top, width)
        for t, p in zip(windows, ints):
            out[t] = get(t, 0) + p * factor
    return out, top, width


def bar_involution(a: HeckeElt) -> HeckeElt:
    """Semilinear ring involution: v -> v^-1 and T_w -> (T_{w^-1})^-1."""
    out, top, width = _bar_packed(a)
    return _unpack(a.n, out.items(), -top, width, a.terms)


def is_bar_invariant(a: HeckeElt) -> bool:
    """Whether bar(a) == a, compared packed (see the module docstring)."""
    out, top, width = _bar_packed(a)
    get = out.get
    return _valuation(a) >= -top and sum(map(bool, out.values())) == len(a.terms) and all(
        get(w.window) == kronecker_pack(c, -top, width) for w, c in a.terms.items()
    )


# -- basis elements ------------------------------------------------------------


def zero(n: int) -> HeckeElt:
    return HeckeElt(n)


def one(n: int) -> HeckeElt:
    return HeckeElt(n, {AffinePerm.identity(n): ONE})


def t_basis(w: AffinePerm) -> HeckeElt:
    return HeckeElt(w.n, {w: ONE})


def t_tilde(w: AffinePerm) -> HeckeElt:
    return HeckeElt(w.n, {w: v_power(-w.length())})


def invert_t(w: AffinePerm) -> HeckeElt:
    """The inverse of T_w from the shared table; its coefficients are at most 3^l(w)."""
    width = _bucket_width(3 ** w.length())
    return _unpack(w.n, zip(*_inverse(w.inverse(), width)), 0, width, (w,))


@functools.lru_cache(maxsize=256)
def x_element(n: int, i: int) -> HeckeElt:
    """Bernstein element X_i, 1 <= i <= n."""
    if not 1 <= i <= n:
        raise IndexError("X index %d out of range [1,%d]" % (i, n))
    if i == 1:
        return HeckeElt(n, {Word(n, [*range(1, n), RHO_INV]).to_perm(): v_power(1 - n)})
    prev = x_element(n, i - 1)
    t_inv = invert_t(AffinePerm.s(n, i - 1))
    return (t_inv * prev * t_inv).scale(V2)


@functools.lru_cache(maxsize=256)
def x_element_inverse(n: int, i: int) -> HeckeElt:
    """X_i^-1 (leaves the positive subalgebra; used by the presentation audit)."""
    if not 1 <= i <= n:
        raise IndexError("X index %d out of range [1,%d]" % (i, n))
    if i == 1:
        (w,) = x_element(n, 1).terms
        return invert_t(w).scale(v_power(n - 1))
    prev = x_element_inverse(n, i - 1)
    ti = t_basis(AffinePerm.s(n, i - 1))
    return (ti * prev * ti).scale(Q)


@functools.lru_cache(maxsize=1024)
def x_monomial(n: int, mu: tuple) -> HeckeElt:
    """The product X_1^{mu_1} ... X_n^{mu_n} for a nonnegative composition mu."""
    mu = tuple(mu)
    if len(mu) != n:
        raise ValueError("exponent vector must have length n=%d" % n)
    if any(m < 0 for m in mu):
        raise NegativeEntryError("negative exponent in %r: X_i^-1 is not positive" % (mu,))
    out = one(n)
    for i, m in enumerate(mu, start=1):
        for _ in range(m):
            out = out * x_element(n, i)
    return out
