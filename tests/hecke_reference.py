"""Reference implementations of the T-basis letter steps, the product, the
inverse T_w^-1 and the bar involution.

These are the straightforward per-term forms over AffinePerm keys and
LaurentPoly coefficients: a letter step composes every window with the
letter and multiplies its coefficient by a LaurentPoly, a product runs one
such step per letter of a reduced word of each right-hand term, an inverse
costs one product per letter, and the bar involution re-adds the whole
running sum per term.  The package computes the same values in its packed
kernel; the differential tests compare the two.
"""

from affhecke import HeckeElt, LaurentPoly, one
from affhecke.weyl import RHO, RHO_INV, AffinePerm

Q = LaurentPoly({-2: 1})
Q_MINUS_ONE = LaurentPoly({-2: 1, 0: -1})
V2 = LaurentPoly({2: 1})
V2_MINUS_ONE = LaurentPoly({2: 1, 0: -1})


def _acc(d: dict, w: AffinePerm, c: LaurentPoly) -> None:
    s = d.get(w)
    s = c if s is None else s + c
    if s:
        d[w] = s
    else:
        d.pop(w, None)


def right_letter_reference(a: HeckeElt, letter) -> HeckeElt:
    """a T_letter: T_{ws}, or (q-1) T_w + q T_{ws} at a right descent."""
    n = a.n
    out: dict = {}
    if letter in (RHO, RHO_INV):
        step = AffinePerm.rho(n, 1 if letter == RHO else -1)
        for w, c in a.terms.items():
            out[w.compose(step)] = c
        return HeckeElt(n, out)
    si = AffinePerm.s(n, letter)
    for w, c in a.terms.items():
        ws = w.compose(si)
        if w.has_right_descent(letter):
            _acc(out, w, c * Q_MINUS_ONE)
            _acc(out, ws, c * Q)
        else:
            _acc(out, ws, c)
    return HeckeElt(n, out)


def right_letter_inverse_reference(a: HeckeElt, letter) -> HeckeElt:
    """a T_letter^-1: T_{ws} at a right descent, else v^2 T_{ws} + (v^2-1) T_w."""
    if letter in (RHO, RHO_INV):
        return right_letter_reference(a, RHO_INV if letter == RHO else RHO)
    n = a.n
    out: dict = {}
    si = AffinePerm.s(n, letter)
    for w, c in a.terms.items():
        ws = w.compose(si)
        if w.has_right_descent(letter):
            _acc(out, ws, c)
        else:
            _acc(out, ws, c * V2)
            _acc(out, w, c * V2_MINUS_ONE)
    return HeckeElt(n, out)


def mul_reference(a: HeckeElt, b: HeckeElt) -> HeckeElt:
    """a b, one letter step per letter of a reduced word of each term of b."""
    total: dict = {}
    for w, c in b.terms.items():
        cur = a
        for letter in w.reduced_word().letters:
            cur = right_letter_reference(cur, letter)
        for u, cu in cur.terms.items():
            _acc(total, u, cu * c)
    return HeckeElt(a.n, total)


def invert_t_reference(w: AffinePerm) -> HeckeElt:
    """T_w^-1 via T_{s_i}^-1 = v^2 T_{s_i} + (v^2-1), one product per letter."""
    n = w.n
    out = one(n)
    for letter in reversed(w.reduced_word().letters):
        if letter == RHO:
            out = right_letter_reference(out, RHO_INV)
        elif letter == RHO_INV:
            out = right_letter_reference(out, RHO)
        else:
            si = AffinePerm.s(n, letter)
            inv = HeckeElt(n, {si: V2, AffinePerm.identity(n): V2_MINUS_ONE})
            out = mul_reference(out, inv)
    return out


def bar_involution_reference(a: HeckeElt) -> HeckeElt:
    """v -> v^-1 and T_w -> (T_{w^-1})^-1, one full inverse per term."""
    out = HeckeElt(a.n)
    for w, c in a.terms.items():
        out = out + invert_t_reference(w.inverse()).scale(c.bar())
    return out
