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
support.  Unrolled, the recursion cancels T_1 ... T_{i-1} from the front of
X_1, so both X_i and its inverse are one T-term times inverse letters, built
by right steps only (``tests/hecke_reference.py`` keeps the recursion):
    X_i    = v^{2i-1-n} T_{s_i ... s_{n-1} rho^-1} T_{s_1}^-1 ... T_{s_{i-1}}^-1,
    X_i^-1 = v^{n+1-2i} T_{s_{i-1} ... s_1} (T_{s_i ... s_{n-1} rho^-1})^-1.

Letter steps in both directions, products, inverses and the bar involution
all run in one packed kernel.  An operation packs its operands once, as
dicts from window tuple to one int per coefficient, sum_e c_e 2^(B (e - e0))
with balanced digits (``laurent.kronecker_pack``), and unpacks its result
once.  Windows move by ``weyl.letter_action``.  On coefficients, v^2 and
v^2 - 1 are a shift and a shift with a subtraction, and a coefficient
product is one int product.  The base e0
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

``product`` plans a*b in one pass per operand, each coefficient read
once: ``plan_left`` takes the valuation, exponent spread and height of a,
``plan_right`` the lengths of supp b, its valuation and spread, its weight
sum 3^l(w) |c_w|_1 and its steps; ``coefficient_bits`` gives the slot
width.  A request budget is charged from that plan, before any reduced
word is built or letter step runs, with two bounds.  Steps: the l(w)
Coxeter letters of w at most double the terms each and its |degree(w)|
rho letters keep their count, so a*b takes at most |supp a| * sum over w
in supp b of 2^l(w) (2 + |degree(w)|) letter-term steps.  Bits: a packed
coefficient of a*b spans the exponents of a and b widened by 2 per
letter, 1 + 2 max l(w) + (deg - val)(a) + (deg - val)(b) slots of the
plan's width.  Where the step bound does not fit the budget, a dry run on
windows alone counts the letter steps instead, stopped once it passes the
rest of the budget; every letter steps at least the windows of a, so a
word of l(w) + |degree(w)| letters that cannot fit is refused before it
is built.
``invert_t`` charges T_w^-1 as the product 1*T_w: 2^l(w) (2 + |degree(w)|)
steps, 1 + 2 l(w) slots of the width for 3^l(w), and a dry run along the
inverse letter steps it takes.  An X_i atom of a request is charged
``x_element_steps(i)`` = 6 (2^(i-1) - 1) + 4 (i - 1) steps before it is
built or read from the cache: what its i - 1 inverse letters would plan
as budgeted products, the j-th an inverse T_{s_j}^-1 (4 steps) and a
product by it from 2^(j-1) terms (6 * 2^(j-1) steps).  That passes the
budget at i = 18, whatever n.

The bar involution (semilinear over v -> v^-1, T_w -> (T_{w^-1})^-1) and
``invert_t`` (T_w^-1 = (T_{x^-1})^-1 at x = w^-1) share those inverse
steps.  The partial product for a suffix of the reduced word of x^-1 does
not depend on x, and the suffix is itself the reduced word of u^-1 for one
element u (x with the stripped letters removed on the right), so the
window of u names it.  One module-level table, ``_TABLE``, keeps these
inverses for every call.  It is one dict from a window of any rank to its
int id, with a list id -> the window's one AffinePerm, one slot width per
rank and the inverses, keyed by the window of u and stored as parallel
tuples (ids, ints).  A rank's width is the widest call's slot width seen so
far, rounded up to a power of two; a wider call drops that rank's inverses
and widens it.  A stored inverse is the exact value of its polynomials at
v = 2^B, so a call whose bound needs fewer bits than the rank's B still
reads its result back exactly: only the result has to fit the slots.  A
term whose inverse is stored costs no letter step, no inverse permutation
and no barred polynomial: its coefficient is packed barred straight from
its exponents (``laurent.kronecker_pack_bar``), and its contribution is one
int product per term of the inverse, added into a list indexed by id.  Any
other term runs the inverse letter steps in front of its longest stored
suffix and stores each result.  ``BAR_TABLE_CAP`` bounds the stored
(id, int) pairs and the windows.  An inverse that would pass it is used
but not stored and marks the table full.  A table that is full or names
more windows than the cap is cleared at the start of the next
``bar_involution``, ``KLValue.is_bar_invariant`` or ``invert_t`` call, never
inside one, so ids hold for a whole call.
``clear_bar_table()`` frees the inverses, ids and AffinePerms.

The canonical basis runs on records, ``KLValue``: an element with its exact
valuation and bounds top >= degree, height >= |coefficient| and bar_bound >=
sum_x 3^l(x) |c_x|_1 (``KLValue.of`` computes all four exactly).  ``kl_step``
packs b and each b_x once, at base min(val(b) - 1, val(b_x)) and the width of
h = 2 height(b) + sum |mu| height(b_x), takes one letter step, subtracts the
corrections as ints and unpacks once, naming every term by the table's
AffinePerm for its window, so l(x) is computed once per window while the table
lasts (``product`` reuses only its left operand's).  A unit coefficient +-v^e
unpacks to ``laurent``'s shared object, so records keep one per distinct unit
rather than one per term; nearly every canonical coefficient is one.  The new
record reads no coefficient.  Its valuation is the lowest set bit of the ints
over B, since a nonzero lowest digit |c| < 2^(B-1) keeps its low bits.  Its
bounds hold term by term: v c T_x (T_s + 1) = v^{+-1} c (T_x + T_xs), + where
xs > x, with l(xs) <= l(x) + 1.  So a coefficient of v b (T_s + 1) is a sum of
two of b's, no exponent passes top(b) + 1 and the bar sum is at most 4
bar_bound(b); the corrections add sum |mu| height(b_x), top(b_x) to the max,
sum |mu| bar_bound.  ``KLValue.is_bar_invariant`` is false if val < -top,
else it subtracts the element, packed at base -top and the bar sum's width,
from that sum: bar(a) == a exactly when every id is left at 0, as bar(a) has
no exponent below -top and bar_bound covers every coefficient.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from collections.abc import Callable, Iterable, Mapping, Sequence

from .errors import NegativeEntryError, RankMismatchError
from .laurent import (
    ONE,
    LaurentPoly,
    kronecker_pack,
    kronecker_pack_bar,
    kronecker_unpack,
    slot_width,
    v_power,
)
from .weyl import RHO, RHO_INV, AffinePerm, Word, letter_action


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

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return self.scale(other)
        if not isinstance(other, HeckeElt):
            return NotImplemented
        return product(self, other)

    # -- rendering -----------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        order = sorted(self.terms.items(), key=lambda t: (-t[0].length(), t[0].window))
        for w, c in order:
            basis = "T[%s]" % Word(w.n, _reduced_letters(w))
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


def _raw(n: int, terms: dict[AffinePerm, LaurentPoly]) -> HeckeElt:
    out = HeckeElt.__new__(HeckeElt)
    out.n = n
    out.terms = {w: c for w, c in terms.items() if c}
    return out


# -- the packed kernel -----------------------------------------------------------


def _step(terms: dict, n: int, letter, shift: int) -> dict:
    """Packed terms times T_letter; a Coxeter letter lowers the base by 2.

    Read at the lower base, an input coefficient p is p << shift, so
    T_w T_s = (q-1) T_w + q T_ws at a descent gives p - (p << shift) at w
    and p at ws, and T_w T_s = T_ws elsewhere gives p << shift at ws.
    """
    move, descent = letter_action(n, letter)
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
    move, (a, b, off) = letter_action(n, letter)
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


def _dry_run(n: int, windows: set, perms: Iterable[AffinePerm], word, cap: int) -> int:
    """A bound on the letter-term steps of running ``word(w)`` for each w of
    ``perms`` by T or by T^-1 from terms on ``windows``, or a count above
    ``cap`` once it passes it; coefficients are never formed.  Every Coxeter
    letter keeps both the moved and the unmoved windows, a superset of what
    either kernel keeps; by the subword property the windows after a prefix
    of a reduced word stay in windows·[e, prefix], so the count grows like
    the lower Bruhat intervals, not like 2^l."""
    steps = 0
    for w in perms:
        # each of the l(w) + |degree(w)| letters steps at least the windows,
        # so a word that cannot fit is refused before it is built
        least = steps + len(windows) * (w.length() + abs(w.degree()))
        if least > cap:
            return least
        letters = word(w)
        cur = windows
        last = len(letters) - 1
        for i, letter in enumerate(letters):
            steps += len(cur)
            # a next letter steps at least as many windows, so stop before building them
            ahead = len(cur) if i < last else 0
            if steps + ahead > cap:
                return steps + ahead
            move, descent = letter_action(n, letter)
            moved = set(map(move, cur))
            if descent is not None:
                moved |= cur
            cur = moved
    return steps


def product(a: HeckeElt, b: HeckeElt, charge=None) -> HeckeElt:
    """a*b, planned in one pass over each operand (``plan_left``,
    ``plan_right``), then the reduced words of supp b.  ``charge(steps,
    bits, dry_run)``, if given, receives the plan's cost (see the module
    docstring) before any word is built or letter step runs."""
    if a.n != b.n:
        raise RankMismatchError("ranks differ: %d vs %d" % (a.n, b.n))
    n = a.n
    if not a.terms or not b.terms:
        return HeckeElt(n)
    base_a, spread_a, height = plan_left(a)
    lengths, base_b, spread_b, weight, steps = plan_right(b)
    top = max(lengths)
    width, bits = coefficient_bits(spread_a, height, top, spread_b, weight)
    if charge is not None:
        charge(len(a.terms) * steps, bits,
               lambda cap: _dry_run(n, {w.window for w in a.terms}, b.terms, _reduced_letters, cap))
    words = [_reduced_letters(w) for w in b.terms]
    # a T_w runs the letters of w from the packed a; every result is brought
    # to the common base by shifting its coefficient factor
    shift = 2 * width
    packed = {w.window: kronecker_pack(c, base_a, width) for w, c in a.terms.items()}
    total: dict[tuple, int] = {}
    get = total.get
    for letters, c, k in zip(words, b.terms.values(), lengths):
        cur = packed
        for letter in letters:
            cur = _step(cur, n, letter, shift)
        factor = kronecker_pack(c, base_b, width) << (shift * (top - k))
        for t, p in cur.items():
            total[t] = get(t, 0) + p * factor
    known = {w.window: w for w in a.terms}
    return _unpack(n, total.items(), base_a + base_b - 2 * top, width,
                   lambda t: known.get(t) or AffinePerm._trusted(n, t))


def times(a, b, charge=None):
    """a*b, where a and b are each a HeckeElt or a scalar LaurentPoly: the
    ``product`` of two elements, else coefficient arithmetic, charged no
    letter step and the bits ``coefficient_bits`` gives with c*T_e in
    place of a scalar c."""
    if isinstance(a, HeckeElt) and isinstance(b, HeckeElt):
        return product(a, b, charge)
    if charge is not None and a and b:
        charge(0, _scalar_bits(a, b), lambda cap: 0)
    return a * b  # HeckeElt.scale where one side is an element


def _scalar_bits(a, b) -> int:
    """The bits ``product`` plans for a*b, a scalar c read as c*T_e."""
    if isinstance(a, LaurentPoly):
        spread_a, height = a.degree() - a.valuation(), a.height()
    else:
        _, spread_a, height = plan_left(a)
    if isinstance(b, LaurentPoly):
        top, spread_b, weight = 0, b.degree() - b.valuation(), b.norm1()
    else:
        lengths, _, spread_b, weight, _ = plan_right(b)
        top = max(lengths)
    return coefficient_bits(spread_a, height, top, spread_b, weight)[1]


def plan_left(a: HeckeElt) -> tuple[int, int, int]:
    """(valuation, degree - valuation, height) of a nonzero left operand,
    reading each coefficient once."""
    low = high = None
    height = 0
    for c in a.terms.values():
        for e, x in c._c.items():
            if low is None or e < low:
                low = e
            if high is None or e > high:
                high = e
            if abs(x) > height:
                height = abs(x)
    return low, high - low, height


def plan_right(b: HeckeElt) -> tuple[list, int, int, int, int]:
    """(lengths of supp b, valuation, degree - valuation, sum of 3^l(w)
    |c_w|_1, sum of 2^l(w) (2 + |degree(w)|)) of a nonzero right operand,
    reading each coefficient once."""
    lengths = []
    low = high = None
    weight = steps = 0
    for w, c in b.terms.items():
        k = w.length()
        lengths.append(k)
        norm = 0
        for e, x in c._c.items():
            if low is None or e < low:
                low = e
            if high is None or e > high:
                high = e
            norm += abs(x)
        weight += 3**k * norm
        steps += 2**k * (2 + abs(w.degree()))
    return lengths, low, high - low, weight, steps


def coefficient_bits(spread_a: int, height_a: int, top: int, spread_b: int, weight_b: int) -> tuple[int, int]:
    """(slot width, bits of one packed coefficient) of a product planned
    from a left operand's exponent spread and height and a right operand's
    longest length, exponent spread and weight (see the module docstring)."""
    width = slot_width(height_a * weight_b)
    return width, (1 + 2 * top + spread_a + spread_b) * width


def _unpack(n: int, pairs: Iterable, base: int, width: int, perm: Callable) -> HeckeElt:
    """The element of the packed (key, int) pairs, naming each nonzero term's key by ``perm(key)``."""
    out = HeckeElt.__new__(HeckeElt)
    out.n = n
    out.terms = {perm(t): kronecker_unpack(p, base, width) for t, p in pairs if p}
    return out


class KLValue(namedtuple("KLValue", "elt valuation top height bar_bound")):
    """An element with its exact valuation and bounds top, height, bar_bound (see the module docstring)."""

    __slots__ = ()

    @classmethod
    def of(cls, elt: HeckeElt) -> "KLValue":
        """The record of ``elt`` with all four values exact, read from its
        plans as a product's left and right operand."""
        if not elt.terms:
            return cls(elt, 0, 0, 0, 0)
        low, spread, height = plan_left(elt)
        return cls(elt, low, low + spread, height, plan_right(elt)[3])

    def is_bar_invariant(self) -> bool:
        """Whether bar(elt) == elt, from the record (see the module docstring)."""
        top = self.top
        if self.valuation < -top:
            return False
        width, out = _bar_packed(self)
        for w, c in self.elt.terms.items():
            out[_TABLE[w.window]] -= kronecker_pack(c, -top, width)
        return not any(out)


def kl_step(b: KLValue, i: int, corrections: Sequence[tuple[KLValue, int]]) -> KLValue:
    """v b (T_{s_i} + 1) - sum of mu b_x over the pairs (b_x, mu), on records (see the module docstring)."""
    n = b.elt.n
    height = 2 * b.height + sum(abs(mu) * x.height for x, mu in corrections)
    width = slot_width(height)
    shift = 2 * width
    base = min([b.valuation - 1] + [x.valuation for x, _ in corrections])
    packed = {w.window: kronecker_pack(c, base + 1, width) for w, c in b.elt.terms.items()}
    out = _step(packed, n, i, shift)  # read at base - 1, so at base after the factor v
    get = out.get
    for t, p in packed.items():
        out[t] = get(t, 0) + (p << shift)
    for x, mu in corrections:
        for w, c in x.elt.terms.items():
            t = w.window
            out[t] = get(t, 0) - mu * kronecker_pack(c, base, width)
    table, perms = _TABLE, _TABLE.perms
    low = min((p & -p for p in out.values() if p), default=0)  # the lowest set bit of them all
    return KLValue(_unpack(n, out.items(), base, width, lambda t: perms[table[t]]),
                   base + (low.bit_length() - 1) // width if low else 0,
                   max([b.top + 1] + [x.top for x, _ in corrections]), height,
                   4 * b.bar_bound + sum(abs(mu) * x.bar_bound for x, mu in corrections))


BAR_TABLE_CAP = 1 << 15  # the most (id, int) pairs, and the most windows, the shared inverse table keeps


class _InverseTable(dict):
    """The packed inverses that ``invert_t`` and ``bar_involution`` share:
    window -> id for every rank, ids counting from 0.

    Windows of two ranks have two lengths, so they never collide.
    ``perms[id]`` is the window's one AffinePerm, and looking up a new window
    gives it the next id.  ``inverses`` maps the window of u to the inverse
    (T_{u^-1})^-1 packed at base 0 and its rank's slot width ``widths[n]``,
    as parallel tuples (ids, ints).  ``terms`` counts the stored (id, int)
    pairs and never passes ``BAR_TABLE_CAP``: an inverse that would pass it
    is used but not stored, and marks the table ``full``.  A table that is
    full, or names more windows than the cap, is cleared at the start of
    the next ``_bar_packed`` or ``invert_t``, never inside a call, so ids
    hold for a whole call.
    """

    def __init__(self):
        super().__init__()
        self.clear()

    def clear(self) -> None:
        super().clear()
        self.perms, self.inverses, self.widths = [], {}, {}
        self.terms = 0
        self.full = False

    def __missing__(self, t: tuple) -> int:
        i = self[t] = len(self.perms)
        self.perms.append(AffinePerm._trusted(len(t), t))
        return i

    def open(self, n: int, bound: int) -> int:
        """Rank n's slot width for a call whose coefficients are at most
        ``bound``, after clearing a table that is full or names too many
        windows.  A call whose slot width, rounded up to a power of two, is
        wider than the rank's drops the rank's inverses and widens it to that
        width."""
        if self.full or len(self) > BAR_TABLE_CAP:
            self.clear()
        width = 1 << (slot_width(bound) - 1).bit_length()
        if width > self.widths.get(n, 0):
            self.inverses = {u: entry for u, entry in self.inverses.items() if len(u) != n}
            self.terms = sum(len(ids) for ids, _ in self.inverses.values())
            self.widths[n] = width
        return self.widths[n]

    def store(self, u: tuple, inv: dict) -> tuple:
        """The packed inverse ``inv`` (window -> int) for the window u as (ids, ints),
        kept unless the table would pass the cap."""
        entry = tuple(map(self.__getitem__, inv)), tuple(inv.values())
        if self.terms + len(inv) > BAR_TABLE_CAP:
            self.full = True
        else:
            self.inverses[u] = entry
            self.terms += len(inv)
        return entry


_TABLE = _InverseTable()


def clear_bar_table() -> None:
    """Free the inverses, ids and AffinePerms the shared table keeps between calls."""
    _TABLE.clear()


def _inverse(w: AffinePerm, width: int) -> tuple:
    """The packed (T_{w^-1})^-1 at slot ``width``, as (ids, ints).

    With letters the reduced word of w^-1, the suffix letters[j:] is the
    reduced word of u_j^-1, where u_0 = w and u_{j+1} = u_j letters[j]; its
    inverse T-product is the stored inverse of u_{j+1} times the inverse of
    T_{letters[j]}.  Only the steps in front of the longest stored suffix
    run, and each stores its result.
    """
    n = w.n
    inverses = _TABLE.inverses
    letters = _reduced_letters(w.inverse())
    path = []
    t = w.window
    for letter in letters:
        if t in inverses:
            break
        path.append(t)
        t = letter_action(n, letter)[0](t)
    entry = inverses.get(t) or ((_TABLE[t],), (1,))  # only the empty suffix is never stored
    if path:
        perms = _TABLE.perms
        inv = {perms[i].window: p for i, p in zip(*entry)}
        shift = 2 * width
        for j in range(len(path) - 1, -1, -1):
            inv = _step_inverse(inv, n, letters[j], shift)
            entry = _TABLE.store(path[j], inv)
    return entry


def _bar_packed(rec: KLValue) -> tuple[int, list]:
    """bar(rec.elt) packed as (slot width, id -> int), at base -rec.top and
    the rank's width, which ``rec.bar_bound`` sets: each term c T_w adds
    bar(c) (T_{w^-1})^-1, whose coefficients are at most 3^l(w) |c|_1.  A
    stored inverse is exact at v = 2^width, so reading the result back needs
    only that bound, however much wider the slots are (see the module docstring).
    Each term is added as it is read, so an inverse that a full table does
    not keep is freed before the next term's is built.
    """
    top = rec.top
    width = _TABLE.open(rec.elt.n, rec.bar_bound)
    inverses, perms = _TABLE.inverses, _TABLE.perms
    out = [0] * len(perms)
    for w, c in rec.elt.terms.items():
        entry = inverses.get(w.window)
        if entry is None:  # only a new inverse names new ids
            entry = _inverse(w, width)
            out += [0] * (len(perms) - len(out))
        factor = kronecker_pack_bar(c, top, width)
        for i, p in zip(*entry):
            out[i] += p * factor
    return width, out


def bar_involution(a: HeckeElt) -> HeckeElt:
    """Semilinear ring involution: v -> v^-1 and T_w -> (T_{w^-1})^-1."""
    rec = KLValue.of(a)
    width, out = _bar_packed(rec)
    return _unpack(a.n, enumerate(out), -rec.top, width, _TABLE.perms.__getitem__)


# -- basis elements ------------------------------------------------------------


def one(n: int) -> HeckeElt:
    return HeckeElt(n, {AffinePerm.identity(n): ONE})


def t_basis(w: AffinePerm) -> HeckeElt:
    return HeckeElt(w.n, {w: ONE})


def t_tilde(w: AffinePerm) -> HeckeElt:
    return HeckeElt(w.n, {w: v_power(-w.length())})


def invert_t(w: AffinePerm, charge=None) -> HeckeElt:
    """The inverse of T_w from the shared table; its coefficients are at most
    3^l(w).  ``charge``, if given, receives its cost first, as for a product."""
    k = w.length()
    if charge is not None:
        identity = AffinePerm.identity(w.n).window
        charge(2**k * (2 + abs(w.degree())), coefficient_bits(0, 1, k, 0, 3**k)[1],
               lambda cap: _dry_run(w.n, {identity}, [w], lambda u: _reduced_letters(u)[::-1], cap))
    width = _TABLE.open(w.n, 3**k)
    return _unpack(w.n, zip(*_inverse(w.inverse(), width)), 0, width, _TABLE.perms.__getitem__)


def x_element_steps(i: int) -> int:
    """The letter steps a request is charged for the atom X_i (see the module docstring)."""
    return 6 * (2 ** (i - 1) - 1) + 4 * (i - 1)


def _times_inverses(w: AffinePerm, letters: Sequence, exponent: int) -> HeckeElt:
    """v^exponent T_w T_{letters[0]}^-1 T_{letters[1]}^-1 ..., one packed
    inverse step per letter; each step at most triples a coefficient."""
    n = w.n
    width = slot_width(3 ** len(letters))
    cur = {w.window: 1}
    for letter in letters:
        cur = _step_inverse(cur, n, letter, 2 * width)
    return _unpack(n, cur.items(), exponent, width, lambda t: AffinePerm._trusted(n, t))


@functools.lru_cache(maxsize=256)
def x_element(n: int, i: int) -> HeckeElt:
    """Bernstein element X_i, 1 <= i <= n, in closed form (see the module docstring)."""
    if not 1 <= i <= n:
        raise IndexError("X index %d out of range [1,%d]" % (i, n))
    return _times_inverses(Word(n, [*range(i, n), RHO_INV]).to_perm(), range(1, i), 2 * i - 1 - n)


@functools.lru_cache(maxsize=256)
def x_element_inverse(n: int, i: int) -> HeckeElt:
    """X_i^-1, in closed form; it leaves the positive subalgebra (the
    presentation audit in tests/test_acceptance.py checks it)."""
    if not 1 <= i <= n:
        raise IndexError("X index %d out of range [1,%d]" % (i, n))
    letters = [RHO_INV, *range(n - 1, i - 1, -1)]  # of (T_{s_i ... s_{n-1} rho^-1})^-1
    return _times_inverses(Word(n, range(i - 1, 0, -1)).to_perm(), letters, n + 1 - 2 * i)


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
