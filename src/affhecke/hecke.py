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
"""

from __future__ import annotations

import functools
from typing import Mapping, Sequence

from .errors import NegativeEntryError, RankMismatchError
from .laurent import ONE, Q, Q_MINUS_ONE, V2, V2_MINUS_ONE, LaurentPoly, v_power
from .weyl import RHO, RHO_INV, AffinePerm


@functools.lru_cache(maxsize=None)
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
        n = self.n
        out: dict[AffinePerm, LaurentPoly] = {}
        if letter in (RHO, RHO_INV):
            step = AffinePerm.rho(n, 1 if letter == RHO else -1)
            for w, c in self.terms.items():
                out[w.compose(step)] = c
            return _raw(n, out)
        si = AffinePerm.s(n, letter)
        for w, c in self.terms.items():
            ws = w.compose(si)
            if w.has_right_descent(letter):
                _acc(out, w, c * Q_MINUS_ONE)
                _acc(out, ws, c * Q)
            else:
                _acc(out, ws, c)
        return _raw(n, out)

    def right_letter_inverse(self, letter) -> "HeckeElt":
        """Multiply on the right by the inverse of T of a single generator letter.

        T_w T_{s_i}^-1 = T_{w s_i} if l(w s_i) < l(w), and otherwise
        v^2 T_{w s_i} + (v^2-1) T_w, from T_{s_i}^-1 = v^2 T_{s_i} + (v^2-1).
        """
        if letter in (RHO, RHO_INV):
            return self.right_letter(RHO_INV if letter == RHO else RHO)
        n = self.n
        out: dict[AffinePerm, LaurentPoly] = {}
        si = AffinePerm.s(n, letter)
        for w, c in self.terms.items():
            ws = w.compose(si)
            if w.has_right_descent(letter):
                _acc(out, ws, c)
            else:
                _acc(out, ws, c * V2)
                _acc(out, w, c * V2_MINUS_ONE)
        return _raw(n, out)

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return self.scale(other)
        if not isinstance(other, HeckeElt):
            return NotImplemented
        if self.n != other.n:
            raise RankMismatchError("ranks differ: %d vs %d" % (self.n, other.n))
        total: dict[AffinePerm, LaurentPoly] = {}
        for w, c in other.terms.items():
            cur = self
            for letter in _reduced_letters(w):
                cur = cur.right_letter(letter)
            for u, cu in cur.terms.items():
                _acc(total, u, cu * c)
        return _raw(self.n, total)

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


def _acc(d: dict, w: AffinePerm, c: LaurentPoly) -> None:
    s = d.get(w)
    s = c if s is None else s + c
    if s:
        d[w] = s
    else:
        d.pop(w, None)


def _raw(n: int, terms: dict[AffinePerm, LaurentPoly]) -> HeckeElt:
    out = HeckeElt.__new__(HeckeElt)
    out.n = n
    out.terms = {w: c for w, c in terms.items() if c}
    return out


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
    """The inverse of T_w: one inverse letter step per letter of a reduced word."""
    out = one(w.n)
    for letter in reversed(_reduced_letters(w)):
        out = out.right_letter_inverse(letter)
    return out


@functools.lru_cache(maxsize=None)
def x_element(n: int, i: int) -> HeckeElt:
    """Bernstein element X_i, 1 <= i <= n."""
    if not 1 <= i <= n:
        raise IndexError("X index %d out of range [1,%d]" % (i, n))
    if i == 1:
        out = one(n)
        for j in range(1, n):
            out = out.right_letter(j)
        out = out.right_letter(RHO_INV)
        return out.scale(v_power(1 - n))
    prev = x_element(n, i - 1)
    t_inv = invert_t(AffinePerm.s(n, i - 1))
    return (t_inv * prev * t_inv).scale(V2)


@functools.lru_cache(maxsize=None)
def x_element_inverse(n: int, i: int) -> HeckeElt:
    """X_i^-1 (leaves the positive subalgebra; used by the presentation audit)."""
    if not 1 <= i <= n:
        raise IndexError("X index %d out of range [1,%d]" % (i, n))
    if i == 1:
        out = t_basis(AffinePerm.rho(n))
        for j in range(n - 1, 0, -1):
            out = out.right_letter_inverse(j)
        return out.scale(v_power(n - 1))
    prev = x_element_inverse(n, i - 1)
    ti = t_basis(AffinePerm.s(n, i - 1))
    return (ti * prev * ti).scale(Q)


@functools.lru_cache(maxsize=None)
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
