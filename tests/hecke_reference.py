"""Reference implementations of the inverse T_w^-1 and the bar involution.

These are the straightforward product-based forms: every letter of every
term costs one general HeckeElt product, and the bar involution re-adds the
whole running sum per term.  The package computes the same values by
shared-suffix inverse letter steps; the differential tests compare the two.
"""

from affhecke import HeckeElt, LaurentPoly, one
from affhecke.weyl import RHO, RHO_INV, AffinePerm

V2 = LaurentPoly({2: 1})
V2_MINUS_ONE = LaurentPoly({2: 1, 0: -1})


def invert_t_reference(w: AffinePerm) -> HeckeElt:
    """T_w^-1 via T_{s_i}^-1 = v^2 T_{s_i} + (v^2-1), one product per letter."""
    n = w.n
    out = one(n)
    for letter in reversed(w.reduced_word().letters):
        if letter == RHO:
            out = out.right_letter(RHO_INV)
        elif letter == RHO_INV:
            out = out.right_letter(RHO)
        else:
            si = AffinePerm.s(n, letter)
            inv = HeckeElt(n, {si: V2, AffinePerm.identity(n): V2_MINUS_ONE})
            out = out * inv
    return out


def bar_involution_reference(a: HeckeElt) -> HeckeElt:
    """v -> v^-1 and T_w -> (T_{w^-1})^-1, one full inverse per term."""
    out = HeckeElt(a.n)
    for w, c in a.terms.items():
        out = out + invert_t_reference(w.inverse()).scale(c.bar())
    return out
