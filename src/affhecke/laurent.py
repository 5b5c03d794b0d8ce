"""Exact integer Laurent polynomials in one variable v.

All scalar coefficients of the algebra live here, together with the bar
involution v -> v^-1.  Values are immutable and hashable; arithmetic is
plain dict convolution on arbitrary-precision ints, so equality is exact.
No operation mutates a value: every result is a newly built object.

Unit monomials +-v^e with |e| <= UNIT_WINDOW are shared: ``v_power``,
``ONE`` and ``kronecker_unpack`` hand out one object per (exponent, sign),
kept in a store of at most 2 (2 UNIT_WINDOW + 1) entries; outside the
window each call builds a fresh one.  Canonical-basis coefficients are
nearly all units, so an element keeps one dict per distinct unit, not one
per term.  Equality stays by value; no code tests identity.

``kronecker_pack`` and ``kronecker_unpack`` convert a polynomial to and
from one int, sum_e c_e 2^(B (e - e0)), for the T-basis kernel in
``hecke``.  Packing is a ring map Z[v] -> Z, so the kernel adds and
multiplies the ints directly; a packed value reads back exactly when every
coefficient satisfies |c_e| < 2^(B-1), which ``slot_width`` guarantees for
a given coefficient bound.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping


class LaurentPoly:
    """Finitely supported map exponent -> coefficient, zero coefficients pruned."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        c: dict[int, int] = {}
        for exp, coef in items:
            if not isinstance(exp, int) or not isinstance(coef, int):
                raise TypeError("exponents and coefficients must be ints")
            if coef:
                c[exp] = c.get(exp, 0) + coef
                if not c[exp]:
                    del c[exp]
        self._c = c

    # -- inspection ------------------------------------------------------

    def coeff(self, exp: int) -> int:
        return self._c.get(exp, 0)

    def items(self):
        return sorted(self._c.items())

    def valuation(self) -> int:
        """Smallest exponent with nonzero coefficient."""
        if not self._c:
            raise ValueError("zero polynomial has no valuation")
        return min(self._c)

    def degree(self) -> int:
        """Largest exponent with nonzero coefficient."""
        if not self._c:
            raise ValueError("zero polynomial has no degree")
        return max(self._c)

    def height(self) -> int:
        """Largest absolute value of a coefficient (0 for the zero polynomial)."""
        return max(map(abs, self._c.values()), default=0)

    def norm1(self) -> int:
        """Sum of the absolute values of the coefficients."""
        return sum(map(abs, self._c.values()))

    def is_monomial(self) -> bool:
        return len(self._c) == 1

    def __bool__(self) -> bool:
        return bool(self._c)

    # -- ring structure ---------------------------------------------------

    @staticmethod
    def _coerce(other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly({0: other})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c = dict(self._c)
        for exp, coef in o._c.items():
            c[exp] = c.get(exp, 0) + coef
            if not c[exp]:
                del c[exp]
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {exp: -coef for exp, coef in self._c.items()}
        return out

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._c, o._c
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            # a monomial factor shifts exponents and scales; nothing cancels
            ((e1, c1),) = a.items()
            c = {e1 + e2: c1 * c2 for e2, c2 in b.items()}
        else:
            acc: dict[int, int] = {}
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = e1 + e2
                    acc[e] = acc.get(e, 0) + c1 * c2
            c = {e: k for e, k in acc.items() if k}
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._c == o._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    # -- involution and specialization -------------------------------------

    def bar(self) -> "LaurentPoly":
        """The involution v -> v^-1 (negate every exponent)."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {-exp: coef for exp, coef in self._c.items()}
        return out

    def specialize_q(self, q) -> Fraction:
        """Evaluate at v^-2 = q.  Requires all exponents even."""
        from fractions import Fraction

        total = Fraction(0)
        q = Fraction(q)
        for exp, coef in self._c.items():
            if exp % 2:
                raise ValueError("odd exponent %d cannot specialize at v^-2=q" % exp)
            total += coef * q ** (-exp // 2)
        return total

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for exp, coef in sorted(self._c.items()):
            mag = abs(coef)
            if exp == 0:
                body = str(mag)
            else:
                var = "v" if exp == 1 else "v^%d" % exp
                body = var if mag == 1 else "%d*%s" % (mag, var)
            sign = "-" if coef < 0 else ("" if not parts else "+")
            parts.append(sign + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return "LaurentPoly(%r)" % (dict(sorted(self._c.items())),)

    def to_json(self) -> dict[str, int]:
        return {str(exp): coef for exp, coef in sorted(self._c.items())}


UNIT_WINDOW = 64  # the largest |e| whose +-v^e is shared
_UNITS: dict[tuple[int, int], LaurentPoly] = {}


def _unit(exp: int, sign: int) -> LaurentPoly:
    """sign * v^exp, shared when |exp| <= UNIT_WINDOW (see the module docstring)."""
    out = _UNITS.get((exp, sign))
    if out is None:
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {exp: sign}
        if -UNIT_WINDOW <= exp <= UNIT_WINDOW:
            _UNITS[exp, sign] = out
    return out


def v_power(k: int) -> LaurentPoly:
    return _unit(k, 1)


ONE = v_power(0)
V2 = v_power(2)                     # q^-1 = v^2
V2_MINUS_ONE = LaurentPoly({2: 1, 0: -1})


# -- Kronecker packing -------------------------------------------------------


def slot_width(bound: int) -> int:
    """The smallest B >= 2 whose balanced digits hold every |c| <= bound.

    (One-bit balanced digits are only 0 and -1, too few to read back.)
    """
    return max(2, bound.bit_length() + 1)


def kronecker_pack(p: LaurentPoly, base: int, width: int) -> int:
    """sum_e c_e 2^(width (e - base)); every exponent must be >= base."""
    out = 0
    for e, c in p._c.items():  # a loop: most coefficients have a term or two
        out += c << (width * (e - base))
    return out


def kronecker_pack_bar(p: LaurentPoly, top: int, width: int) -> int:
    """``kronecker_pack(p.bar(), -top, width)`` without building p.bar();
    every exponent must be <= top."""
    out = 0
    for e, c in p._c.items():
        out += c << (width * (top - e))
    return out


def kronecker_unpack(value: int, base: int, width: int) -> LaurentPoly:
    """The polynomial whose balanced base-2^width digits are ``value``'s;
    a unit monomial, +-2^(width s), is the shared +-v^(base + s)."""
    mag = abs(value)
    s, r = divmod(mag.bit_length() - 1, width)
    if not r and not mag & (mag - 1):  # +-2^(width s): one +-1 digit at the start of slot s
        return _unit(base + s, 1 if value > 0 else -1)
    c: dict[int, int] = {}
    full = 1 << width
    half = full >> 1
    mask = full - 1
    exp = base
    while value:
        skip = ((value & -value).bit_length() - 1) // width  # empty low slots
        value >>= skip * width
        exp += skip
        digit = value & mask
        if digit >= half:
            digit -= full
        c[exp] = digit
        value = (value - digit) >> width
        exp += 1
    out = LaurentPoly.__new__(LaurentPoly)
    out._c = c
    return out
