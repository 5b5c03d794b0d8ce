"""The packed T-basis kernel against the per-term references in hecke_reference.

Letter steps, inverse steps, products, the bar involution and the step of
the canonical-basis recursion are compared
on random elements at n in {2, 3, 4} with rho letters, negative
coefficients and coefficients of +-2^40, which need slots wider than 40
bits (test_bar_reference compares invert_t).  The cost a budget is
charged for a product or an inverse is compared at n in {1, 2, 3, 4}.
The Kronecker codec is checked at the edges of a slot, and at every width
for one-term values, where unit monomials are the shared ones.  No
operation may mutate an operand, shared units included.
"""

import math

from hypothesis import given, settings, strategies as st
import pytest

from affhecke import HeckeElt, LaurentPoly, bar_involution, hecke, laurent
from affhecke.laurent import kronecker_pack, kronecker_unpack, slot_width
from affhecke.weyl import RHO, RHO_INV, AffinePerm, Word
from hecke_reference import (
    bar_involution_reference,
    inverse_steps_reference,
    mul_reference,
    product_cost_reference,
    product_steps_reference,
    right_letter_inverse_reference,
    right_letter_reference,
)

BIG = 2**40
RANKS = st.sampled_from((2, 3, 4))
COEFFS = st.one_of(st.integers(-3, 3), st.sampled_from((BIG, -BIG, BIG - 1, 1 - BIG)))


def alphabet(n):
    return (list(range(n)) if n > 1 else []) + [RHO, RHO_INV]


def element(n, max_word=6, max_terms=4):
    """Random elements of rank n; rho letters give terms of nonzero degree."""
    words = st.lists(st.sampled_from(alphabet(n)), max_size=max_word)
    coeffs = st.dictionaries(st.integers(-4, 4), COEFFS.filter(bool), min_size=1, max_size=3)
    terms = st.lists(st.tuples(words, coeffs), max_size=max_terms)
    return terms.map(
        lambda ts: HeckeElt(n, [(Word(n, w).to_perm(), LaurentPoly(c)) for w, c in ts])
    )


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_letter_steps_match_reference(data):
    n = data.draw(RANKS)
    a = data.draw(element(n))
    for letter in alphabet(n):
        assert a.right_letter(letter) == right_letter_reference(a, letter)
        assert a * hecke.invert_t(Word(n, (letter,)).to_perm()) == right_letter_inverse_reference(a, letter)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_products_match_reference(data):
    n = data.draw(RANKS)
    a = data.draw(element(n))
    b = data.draw(element(n, max_word=5, max_terms=3))
    assert a * b == mul_reference(a, b)


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_charges_match_the_reference_cost(data):
    # a product is charged once, before it runs, with the reference (steps,
    # bits) and the reference dry run; a zero operand charges nothing.  The
    # coarse steps, charged without a dry run where they fit, bound the
    # dry run's uncapped count.
    n = data.draw(st.sampled_from((1, 2, 3, 4)))
    a = data.draw(element(n))
    b = data.draw(element(n, max_word=5, max_terms=3))
    charged = []
    assert hecke.product(a, b, lambda *cost: charged.append(cost)) == mul_reference(a, b)
    ((steps, bits, dry_run),) = charged or [(0, 0, lambda cap: 0)]
    assert (steps, bits) == product_cost_reference(a, b)
    assert steps >= dry_run(math.inf)
    for cap in (steps, steps // 3, 1):
        assert dry_run(cap) == product_steps_reference(a, b, cap)
    for w in a.terms:
        charged.clear()
        hecke.invert_t(w, lambda *cost: charged.append(cost))
        ((steps, bits, dry_run),) = charged
        assert (steps, bits) == product_cost_reference(hecke.one(n), hecke.t_basis(w))
        assert steps >= dry_run(math.inf)
        for cap in (steps, steps // 3, 1):
            assert dry_run(cap) == inverse_steps_reference(w, cap)


def test_rho_letters_are_charged():
    # T_{rho^5} has length 0 and five letters, each a step of every term
    rho5 = AffinePerm.rho(2, 5)
    charged = []
    hecke.product(hecke.one(2), hecke.t_basis(rho5), lambda *cost: charged.append(cost))
    hecke.invert_t(rho5, lambda *cost: charged.append(cost))
    for steps, _, dry_run in charged:
        assert dry_run(math.inf) == 5
        assert steps == 7


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_bar_matches_reference(data):
    n = data.draw(RANKS)
    a = data.draw(element(n))
    assert bar_involution(a) == bar_involution_reference(a)
    assert bar_involution(bar_involution(a)) == a


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_kl_step_matches_reference(data):
    # v b (T_s + 1) - sum mu b_x, zero operands and corrections of any sign included
    n = data.draw(RANKS)
    b = data.draw(element(n))
    i = data.draw(st.integers(0, n - 1))
    pairs = data.draw(st.lists(st.tuples(element(n, max_terms=3), COEFFS.filter(bool)), max_size=3))
    s_i = AffinePerm.s(n, i)
    factor = HeckeElt(n, {s_i: LaurentPoly({1: 1}), AffinePerm.identity(n): LaurentPoly({1: 1})})
    expected = mul_reference(b, factor)
    for x, mu in pairs:
        expected = expected - x.scale(mu)
    rec = hecke.kl_step(hecke.KLValue.of(b), i, [(hecke.KLValue.of(x), mu) for x, mu in pairs])
    assert rec.elt == expected
    assert_record_bounds(rec)


def assert_record_bounds(rec):
    """The record's valuation is exact and its three bounds dominate the exact values."""
    exact = hecke.KLValue.of(rec.elt)
    assert rec.valuation == exact.valuation
    assert rec.top >= exact.top
    assert rec.height >= exact.height
    assert rec.bar_bound >= exact.bar_bound


def test_repeated_products_pack_wider_as_coefficients_grow(monkeypatch):
    widths = []

    def recording(bound):
        widths.append(slot_width(bound))
        return widths[-1]

    monkeypatch.setattr(hecke, "slot_width", recording)
    n = 3
    base = HeckeElt(n, {
        AffinePerm.identity(n): LaurentPoly({0: BIG}),
        AffinePerm.s(n, 1): LaurentPoly({1: -3, -1: BIG}),
        AffinePerm.s(n, 0): LaurentPoly({-1: 2}),
        AffinePerm.rho(n, -1): LaurentPoly({2: -BIG}),
    })
    out = ref = base
    for _ in range(4):
        out = out * base
        ref = mul_reference(ref, base)
        assert out == ref
    assert len(widths) == 4
    assert widths[0] > 80 and all(x < y for x, y in zip(widths, widths[1:]))


@pytest.mark.parametrize("bound", [1, 2, 3, 7, 8, 2**15 - 1, 2**15, BIG - 1, BIG, 3**60])
def test_slot_width_is_the_narrowest_exact_slot(bound):
    width = slot_width(bound)
    p = LaurentPoly({-3: bound, -2: -bound, 0: bound, 4: -bound, 5: 1})
    assert kronecker_unpack(kronecker_pack(p, -5, width), -5, width) == p
    narrow = width - 1
    if narrow >= 2:
        assert kronecker_unpack(kronecker_pack(p, -5, narrow), -5, narrow) != p


@settings(deadline=None, max_examples=100)
@given(st.dictionaries(st.integers(-20, 20), COEFFS.filter(bool), max_size=8), st.integers(0, 5))
def test_kronecker_round_trip(coeffs, below):
    p = LaurentPoly(coeffs)
    base = (p.valuation() if p else 0) - below
    width = slot_width(p.height())
    assert kronecker_unpack(kronecker_pack(p, base, width), base, width) == p


@pytest.mark.parametrize("base", [-9, 0, 5])
def test_kronecker_round_trip_of_one_term(base):
    """One-term values at every width: +-v^e reads back as the shared unit
    and +-2^j v^e exactly for j < width - 1.  At j = width - 1 the digit
    +2^(width-1) borrows into the next slot, while -2^(width-1) is the
    lowest balanced digit and reads back."""
    for width in range(2, 65):
        for e in (base, base + 1, base + 7):
            for sign in (1, -1):
                packed = kronecker_pack(LaurentPoly({e: sign}), base, width)
                unit = kronecker_unpack(packed, base, width)
                assert unit == LaurentPoly({e: sign})
                assert unit is kronecker_unpack(packed, base, width) is laurent._unit(e, sign)
                for j in range(1, width):
                    p = LaurentPoly({e: sign << j})
                    back = kronecker_unpack(kronecker_pack(p, base, width), base, width)
                    if j < width - 1 or sign < 0:
                        assert back == p
                    else:
                        assert back == LaurentPoly({e: -(1 << j), e + 1: 1})


UNITS = st.builds(laurent._unit, st.integers(-4, 4), st.sampled_from((1, -1)))


def shared_element(n):
    """Random elements of rank n whose coefficients are often shared units."""
    words = st.lists(st.sampled_from(alphabet(n)), max_size=5)
    coeffs = st.one_of(UNITS, st.dictionaries(st.integers(-4, 4), COEFFS.filter(bool), min_size=1,
                                              max_size=3).map(LaurentPoly))
    terms = st.lists(st.tuples(words, coeffs), max_size=4)
    return terms.map(lambda ts: HeckeElt(n, [(Word(n, w).to_perm(), c) for w, c in ts]))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_no_operation_mutates_an_operand(data):
    """Sharing units is sound only while no operation writes into a
    coefficient or an element it was given."""
    n = data.draw(RANKS)
    a, b = data.draw(shared_element(n)), data.draw(shared_element(n))
    c = data.draw(UNITS)
    polys = [c, *a.terms.values(), *b.terms.values()]
    before = [dict(p._c) for p in polys], [dict(x.terms) for x in (a, b)]
    a + b, a - b, -a, a * b, a.scale(c), b.scale(c), hecke.product(b, a), bar_involution(a)
    for p, q in zip(polys, polys[1:] + polys[:1]):
        p + q, p - q, p * q, -p, p.bar()
    assert ([dict(p._c) for p in polys], [dict(x.terms) for x in (a, b)]) == before
    assert all(p._c == {e: sign} for (e, sign), p in laurent._UNITS.items())
