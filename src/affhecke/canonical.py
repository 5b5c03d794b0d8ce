"""Bar involution and the Kazhdan-Lusztig canonical basis.

The bar involution is semilinear over v -> v^-1 and sends T_w to the inverse
of T_{w^-1}.  The canonical element b_w is the unique bar-invariant element

    b_w = v^{l(w)} T_w + sum_{x < w} c_x T_x,   c_x in v^{l(x)+1} Z[v],

computed by the classical recursion on length within the degree-0 coset and
extended to all degrees by b_{w rho^z} = b_{w rho^-z rho^z ...} twisting with
T_{rho^z}.  Every output is re-verified against the defining conditions,
bar-invariance included.

The bar involution evaluates (T_{x^-1})^-1 for every support term x by
inverse letter steps along the reduced word of x^-1, read from its end.
The partial product for a suffix of that word does not depend on x, and
the suffix is itself the reduced word of u^-1 for one element u (x with
the stripped letters removed on the right), so the window of u names it.
One module-level table, shared by every call, keeps these inverses:

* it is keyed by (rank, slot-width bucket), the bucket being the call's
  slot width rounded up to a power of two, and inside a bucket by the
  window of u;
* each inverse is stored as parallel tuples of windows and packed ints,
  the windows interned per rank, with l(u) kept beside it;
* ``BAR_TABLE_CAP`` bounds the stored (window, int) pairs: an inverse that
  would pass it first clears the whole table, and one larger than the cap
  is used and not stored; ``clear_bar_table()`` frees the table.

A term whose inverse is stored costs no letter step, no inverse
permutation and no barred polynomial: its coefficient is packed barred
straight from its exponents (``laurent.kronecker_pack_bar``), and its
contribution is one int product per term of the inverse.  Any other term
runs the inverse letter steps in front of its longest stored suffix and
stores each result.  The steps act on window tuples and Kronecker-packed
int coefficients in the kernel of ``hecke``, and the result is unpacked
once.  Exactness: packing is the ring map Z[v] -> Z, v -> 2^B, so a stored
inverse is the exact value of its polynomials at v = 2^B whichever call
computed it, and the result reads back exactly once its coefficients fit
B-bit slots; the bound in ``bar_involution`` guarantees that for the
call's width, and the bucket's B is at least as wide.
"""

from __future__ import annotations

import functools

from . import hecke, quotients
from .errors import InternalInvariantError, ResourceLimitError
from .hecke import HeckeElt, t_basis
from .laurent import kronecker_pack_bar, slot_width, v_power
from .quotients import IdealSpec, QuotientElt, in_ideal
from .weyl import AffinePerm, positive_elements

DEFAULT_LENGTH_CAP = 24


class CanonicalElt:
    """A canonical basis element together with its index."""

    __slots__ = ("index", "value")

    def __init__(self, index: AffinePerm, value: HeckeElt):
        self.index = index
        self.value = value

    def __eq__(self, other):
        if not isinstance(other, CanonicalElt):
            return NotImplemented
        return self.index == other.index and self.value == other.value

    def __repr__(self):
        return "CanonicalElt(%r, %r)" % (self.index, self.value)

    def __str__(self):
        return str(self.value)

    def to_json(self):
        return {"window": list(self.index.window), "terms": self.value.to_json()}


BAR_TABLE_CAP = 1 << 15  # the most (window, int) pairs the bar's shared table holds


class _InverseTable:
    """The packed inverses (T_{u^-1})^-1 that every ``bar_involution`` call shares.

    ``buckets[n, width]`` maps the window of u to the inverse packed at that
    slot width, base 0, as parallel tuples (windows, ints); ``lengths[n]``
    maps it to l(u); ``windows[n]`` keeps one tuple per window met at rank
    n, so every inverse refers to the same window objects.  ``terms``
    counts the stored (window, int) pairs and never passes ``BAR_TABLE_CAP``.
    """

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.buckets: dict = {}
        self.lengths: dict = {}
        self.windows: dict = {}
        self.terms = 0

    def store(self, n: int, width: int, u: tuple, length: int, inv: dict) -> tuple:
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
        self.lengths.setdefault(n, {})[u] = length
        self.terms += size
        return entry


_TABLE = _InverseTable()


def clear_bar_table() -> None:
    """Free the inverses ``bar_involution`` keeps between calls."""
    _TABLE.clear()


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
    letters = hecke._reduced_letters(w.inverse())
    path = []
    t = w.window
    for letter in letters:
        if t in table:
            break
        path.append(t)
        t = hecke._window_step(n, letter)[0](t)
    entry = table.get(t) or ((t,), (1,))  # only the empty suffix is never stored
    if path:
        inv = dict(zip(*entry))
        shift = 2 * width
        for j in range(len(path) - 1, -1, -1):
            inv = hecke._step_inverse(inv, n, letters[j], shift)
            entry = _TABLE.store(n, width, path[j], hecke._coxeter_count(letters[j:]), inv)
    return entry


def bar_involution(a: HeckeElt) -> HeckeElt:
    """Semilinear ring involution: v -> v^-1 and T_w -> (T_{w^-1})^-1.

    Each term c T_w adds bar(c) (T_{w^-1})^-1, read from the shared table
    (see the module docstring).  The inverse for w has coefficients at most
    3^l(w); with the 1-norms of the coefficients that bounds the result and
    sets the slot width, rounded up to a power of two to pick the table's
    bucket.  A stored inverse is the exact value of its polynomials at
    v = 2^width, so reading the result back needs only that bound.
    """
    n = a.n
    if not a.terms:
        return HeckeElt(n)
    lengths = _TABLE.lengths.get(n, {})
    bound = 0
    for w, c in a.terms.items():
        k = lengths.get(w.window)
        bound += 3 ** (w.length() if k is None else k) * c.norm1()
    width = 1 << (slot_width(bound) - 1).bit_length()
    top = max(c.degree() for c in a.terms.values())
    table = _TABLE.buckets.setdefault((n, width), {})
    out: dict[tuple, int] = {}
    get = out.get
    for w, c in a.terms.items():
        windows, ints = table.get(w.window) or _inverse(w, width)
        factor = kronecker_pack_bar(c, top, width)
        for t, p in zip(windows, ints):
            out[t] = get(t, 0) + p * factor
    return hecke._unpack(n, out, -top, width, a)


def canonical_basis(w: AffinePerm, max_length: int = DEFAULT_LENGTH_CAP) -> CanonicalElt:
    """The canonical basis element indexed by w (self-verifying)."""
    if w.length() > max_length:
        raise ResourceLimitError(
            "length %d exceeds cap %d" % (w.length(), max_length)
        )
    value = _canonical_value(w)
    _verify(w, value)
    return CanonicalElt(w, value)


@functools.lru_cache(maxsize=None)
def _canonical_value(w: AffinePerm) -> HeckeElt:
    n = w.n
    z = w.degree()
    if z:
        base = _canonical_value(w.compose(AffinePerm.rho(n, -z)))
        return base * t_basis(AffinePerm.rho(n, z))
    if w.length() == 0:
        return hecke.one(n)
    i = next(i for i in range(n) if w.has_right_descent(i))
    si = AffinePerm.s(n, i)
    u = w.compose(si)
    bu = _canonical_value(u)
    bs = (t_basis(si) + hecke.one(n)).scale(v_power(1))
    out = bu * bs
    for x, cx in bu.terms.items():
        if not x.has_right_descent(i):
            continue
        mu = cx.coeff(x.length() + 1)
        if mu:
            out = out - _canonical_value(x).scale(mu)
    return out


def _verify(w: AffinePerm, value: HeckeElt) -> None:
    if value.coeff(w) != v_power(w.length()):
        raise InternalInvariantError("b_%s has a wrong leading term" % w)
    for x, cx in value.terms.items():
        if x == w:
            continue
        if cx.valuation() < x.length() + 1:
            raise InternalInvariantError(
                "b_%s coefficient at %s violates the valuation bound" % (w, x)
            )
    if bar_involution(value) != value:
        raise InternalInvariantError("b_%s is not bar-invariant" % w)


def mu_coefficient(b: CanonicalElt, x: AffinePerm) -> int:
    """The coefficient of v^{l(x)+1} in the T_x coordinate of b."""
    return b.value.coeff(x).coeff(x.length() + 1)


def positive_canonical_basis(
    n: int, max_length: int, max_depth: int
) -> list[CanonicalElt]:
    """All b_w with w positive, l(w) <= max_length, degree(w) >= -max_depth.

    Asserts the positivity of supports: for positive w the whole support of
    b_w stays inside the positive cone.  A max_length above
    DEFAULT_LENGTH_CAP raises ResourceLimitError before any enumeration.
    """
    if max_length < 0 or max_depth < 0:
        raise ResourceLimitError("bounds must be nonnegative")
    if max_length > DEFAULT_LENGTH_CAP:
        raise ResourceLimitError("length %d exceeds cap %d" % (max_length, DEFAULT_LENGTH_CAP))
    out = []
    for w in positive_elements(n, max_length, -max_depth):
        b = canonical_basis(w)
        bad = [x for x in b.value.terms if not x.is_positive()]
        if bad:
            raise InternalInvariantError(
                "b_%s leaves the positive cone at %s" % (w, bad[0])
            )
        out.append(b)
    return out


def quotient_canonical_basis(
    spec: IdealSpec, max_length: int, max_depth: int
) -> list[tuple[AffinePerm, QuotientElt]]:
    """Indices and nonzero images of the positive canonical basis.

    Asserts the kernel description: zeta(b_w) = 0 exactly when w lies in the
    ideal support, in which case the whole support of b_w does.
    """
    out = []
    for b in positive_canonical_basis(spec.n, max_length, max_depth):
        image = quotients.reduce(b.value, spec)
        dies = in_ideal(b.index, spec)
        if dies != image.is_zero:
            raise InternalInvariantError(
                "kernel description fails at %s" % b.index
            )
        if not image.is_zero:
            out.append((b.index, image))
    return out
