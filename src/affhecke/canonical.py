"""The Kazhdan-Lusztig canonical basis.

The canonical element b_w is the unique element fixed by the bar
involution of ``hecke`` with

    b_w = v^{l(w)} T_w + sum_{x < w} c_x T_x,   c_x in v^{l(x)+1} Z[v],

computed by the classical recursion on length within the degree-0 coset,
one ``hecke.kl_step`` per element, and extended to all degrees by
b_{w rho^z} = b_w T_{rho^z}, which moves every window and keeps the
coefficients.  Every output is re-verified against the defining
conditions, bar-invariance included (``hecke.is_bar_invariant``).
"""

from __future__ import annotations

import functools

from . import hecke, quotients
from .errors import InternalInvariantError, ResourceLimitError
from .hecke import HeckeElt, bar_involution, is_bar_invariant, kl_step  # noqa: F401 (re-exported)
from .laurent import LaurentPoly, v_power
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


def canonical_basis(w: AffinePerm, max_length: int = DEFAULT_LENGTH_CAP) -> CanonicalElt:
    """The canonical basis element indexed by w (self-verifying)."""
    if w.length() > max_length:
        raise ResourceLimitError(
            "length %d exceeds cap %d" % (w.length(), max_length)
        )
    value = _canonical_value(w)
    _verify(w, value)
    return CanonicalElt(w, value)


@functools.lru_cache(maxsize=4096)
def _canonical_value(w: AffinePerm) -> HeckeElt:
    n = w.n
    z = w.degree()
    if z:
        rho = AffinePerm.rho(n, z)
        base = _canonical_value(w.compose(AffinePerm.rho(n, -z)))
        return HeckeElt(n, {x.compose(rho): c for x, c in base.terms.items()})
    if w.length() == 0:
        return hecke.one(n)
    i = next(i for i in range(n) if w.has_right_descent(i))
    bu = _canonical_value(w.compose(AffinePerm.s(n, i)))
    mus = [(x, cx.coeff(x.length() + 1)) for x, cx in bu.terms.items() if x.has_right_descent(i)]
    return kl_step(bu, i, [(_canonical_value(x), mu) for x, mu in mus if mu])


def _verify(w: AffinePerm, value: HeckeElt) -> None:
    if value.coeff(w) != v_power(w.length()):
        raise InternalInvariantError("b_%s has a wrong leading term" % w)
    terms = value.terms
    lows = map(LaurentPoly.valuation, terms.values())
    for x, low, length in zip(terms, lows, map(AffinePerm.length, terms)):
        if low <= length and x != w:
            raise InternalInvariantError(
                "b_%s coefficient at %s violates the valuation bound" % (w, x)
            )
    if not is_bar_invariant(value):
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
