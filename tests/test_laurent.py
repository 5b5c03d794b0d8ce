"""Ring axioms, bar involution, and rendering of sparse Laurent polynomials."""

from fractions import Fraction

from hypothesis import given, strategies as st

from affhecke import LaurentPoly
from affhecke.laurent import v_power
from hecke_reference import laurent_from_json

coeff_maps = st.dictionaries(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
)
polys = coeff_maps.map(LaurentPoly)


def test_frozen_examples():
    v = LaurentPoly({1: 1})
    assert LaurentPoly({1: 1, 0: 1}) + LaurentPoly({0: -1}) == v
    assert LaurentPoly({}) + v == v
    assert LaurentPoly({2: 1, -2: 1}) + LaurentPoly({2: 1}) == LaurentPoly({2: 2, -2: 1})
    assert LaurentPoly({1: 1, -1: 1}) * LaurentPoly({1: 1, -1: -1}) == LaurentPoly({2: 1, -2: -1})
    qm1 = LaurentPoly({-2: 1, 0: -1})
    assert qm1 * qm1 == LaurentPoly({-4: 1, -2: -2, 0: 1})
    assert LaurentPoly({2: 1, 0: 3}).bar() == LaurentPoly({-2: 1, 0: 3})


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(polys)
def test_unit_and_zero(a):
    one = LaurentPoly({0: 1})
    zero = LaurentPoly({})
    assert a * one == a
    assert a + zero == a
    assert a - a == zero
    assert a * zero == zero


def test_int_operands_and_repr():
    p = LaurentPoly({-1: 2, 3: -1})
    assert p + 1 == LaurentPoly({-1: 2, 0: 1, 3: -1}) and 1 - p == LaurentPoly({-1: -2, 0: 1, 3: 1})
    assert LaurentPoly({0: 2}) == 2 and p != 2
    assert not LaurentPoly({}) and p
    assert eval(repr(p), {"LaurentPoly": LaurentPoly}) == p


@given(polys, st.integers(min_value=-8, max_value=8).filter(bool),
       st.integers(min_value=-9, max_value=9).filter(bool))
def test_monomial_product_matches_convolution(a, exp, coef):
    # m + 1 has two terms, so its product takes the general convolution
    m = LaurentPoly({exp: coef})
    one = LaurentPoly({0: 1})
    assert m * a == a * m == (m + one) * a - a
    assert all(c != 0 for _, c in (m * a).items())


@given(polys, polys)
def test_bar_is_ring_involution(a, b):
    assert a.bar().bar() == a
    assert (a * b).bar() == a.bar() * b.bar()
    assert (a + b).bar() == a.bar() + b.bar()


@given(coeff_maps)
def test_canonical_sparse_form(coeffs):
    p = LaurentPoly(coeffs)
    # stored support never contains a zero coefficient
    assert all(c != 0 for _, c in p.items())
    assert LaurentPoly(dict(p.items())) == p
    assert p == LaurentPoly({**coeffs, 77: 0})


even_polys = st.dictionaries(
    st.integers(min_value=-4, max_value=4).map(lambda k: 2 * k),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
).map(LaurentPoly)


@given(even_polys, even_polys, st.integers(min_value=1, max_value=5))
def test_specialization_is_a_ring_map(a, b, q):
    assert (a * b).specialize_q(q) == a.specialize_q(q) * b.specialize_q(q)
    assert (a + b).specialize_q(q) == a.specialize_q(q) + b.specialize_q(q)


def test_specialization_values():
    assert LaurentPoly({-2: 1, 0: -1}).specialize_q(2) == 1
    assert LaurentPoly({2: 1}).specialize_q(3) == Fraction(1, 3)
    assert LaurentPoly({-4: 2}).specialize_q(2) == 8
    try:
        LaurentPoly({1: 1}).specialize_q(2)
    except ValueError:
        pass
    else:
        raise AssertionError("odd exponent must refuse to specialize")


def test_text_rendering_ascending_exponents():
    assert str(LaurentPoly({-2: 1, 0: -1})) == "v^-2-1"
    assert str(LaurentPoly({1: -1, 3: 1})) == "-v+v^3"
    assert str(LaurentPoly({0: 7})) == "7"
    assert str(LaurentPoly({})) == "0"
    assert str(v_power(1)) == "v"


@given(polys)
def test_json_round_trip(p):
    blob = p.to_json()
    assert all(isinstance(k, str) for k in blob)
    assert laurent_from_json(blob) == p
