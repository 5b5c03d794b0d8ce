"""The Kazhdan-Lusztig canonical basis.

The canonical element b_w is the unique element fixed by the bar
involution of ``hecke`` with

    b_w = v^{l(w)} T_w + sum_{x < w} c_x T_x,   c_x in v^{l(x)+1} Z[v],

computed by the classical recursion on length within the degree-0 coset,
one ``hecke.kl_step`` per element, and extended to all degrees by
b_{w rho^z} = b_w T_{rho^z}, which moves every window and keeps the
coefficients and the lengths.  ``_canonical_value`` caches records
(``hecke.KLValue``), whose bounds ``kl_step`` derives from its operands' and
the twist copies, so no cached b_x is scanned again.  Every output is
re-verified, bar-invariance from the record included.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from . import hecke, quotients
from .errors import InternalInvariantError, ResourceLimitError
from .hecke import HeckeElt, KLValue, bar_involution, kl_step  # noqa: F401 (re-exported)
from .laurent import v_power
from .quotients import IdealSpec, QuotientElt, in_ideal
from .weyl import AffinePerm, letter_action, positive_elements

DEFAULT_LENGTH_CAP = 24


class CanonicalElt(namedtuple("CanonicalElt", "index value")):
    """A canonical basis element together with its index."""

    __slots__ = ()

    def __str__(self):
        return str(self.value)

    def to_json(self):
        return {"window": list(self.index.window), "terms": self.value.to_json()}


def canonical_basis(w: AffinePerm) -> CanonicalElt:
    """The canonical basis element indexed by w (self-verifying)."""
    if w.length() > DEFAULT_LENGTH_CAP:
        raise ResourceLimitError("length %d exceeds cap %d" % (w.length(), DEFAULT_LENGTH_CAP))
    rec = _canonical_value(w)
    _verify(w, rec)
    return CanonicalElt(w, rec.elt)


@functools.lru_cache(maxsize=4096)
def _canonical_value(w: AffinePerm) -> KLValue:
    n = w.n
    z = w.degree()
    if z:
        rho = AffinePerm.rho(n, z)
        base = _canonical_value(w.compose(AffinePerm.rho(n, -z)))
        return base._replace(elt=HeckeElt(n, {x.compose(rho): c for x, c in base.elt.terms.items()}))
    if w.length() == 0:
        return KLValue.of(hecke.one(n))
    i = next(i for i in range(n) if w.has_right_descent(i))
    move, (a, b, off) = letter_action(n, i)
    bu = _canonical_value(AffinePerm._trusted(n, move(w.window)))
    mus = [(x, cx.coeff(x.length() + 1)) for x, cx in bu.elt.terms.items()
           if x.window[a] - off > x.window[b]]
    return kl_step(bu, i, [(_canonical_value(x), mu) for x, mu in mus if mu])


def _verify(w: AffinePerm, rec: KLValue) -> None:
    if rec.elt.coeff(w) != v_power(w.length()):
        raise InternalInvariantError("b_%s has a wrong leading term" % w)
    for x, c in rec.elt.terms.items():
        if c.valuation() <= x.length() and x != w:
            raise InternalInvariantError(
                "b_%s coefficient at %s violates the valuation bound" % (w, x)
            )
    if not rec.is_bar_invariant():
        raise InternalInvariantError("b_%s is not bar-invariant" % w)


def positive_canonical_basis(
    n: int, max_length: int, max_depth: int
) -> list[CanonicalElt]:
    """All b_w with w positive, l(w) <= max_length, degree(w) >= -max_depth.
    A positive element has degree <= 0, so a negative max_depth gives none.

    Asserts the positivity of supports: for positive w the whole support of
    b_w stays inside the positive cone.  A max_length below 0 or above
    DEFAULT_LENGTH_CAP raises ResourceLimitError before any enumeration.
    """
    if max_length < 0:
        raise ResourceLimitError("length bound must be nonnegative")
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
