"""Inverse letter steps, invert_t and the bar involution with their shared
inverse table against the product-based reference forms in hecke_reference."""

import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from affhecke import HeckeElt, LaurentPoly, bar_involution, canonical_basis, hecke, invert_t, t_basis
from affhecke.weyl import RHO, RHO_INV, Word
from weyl_helpers import elements_ball
from hecke_reference import bar_involution_reference, invert_t_reference, right_letter_inverse_reference
from kostka_reference import longest_in_double_coset


def alphabet(n):
    return list(range(n)) + [RHO, RHO_INV]


BIG = 2**40


@st.composite
def elements(draw, scales=(1,)):
    """Random elements at n in {2,3,4}; rho letters give terms of nonzero
    degree.  Coefficients are at most 3 in size times one of ``scales``."""
    n = draw(st.sampled_from((2, 3, 4)))
    words = st.lists(st.sampled_from(alphabet(n)), max_size=8)
    scale = draw(st.sampled_from(scales))
    coeffs = st.dictionaries(
        st.integers(-3, 3), st.integers(-3, 3).filter(bool).map(scale.__mul__), min_size=1, max_size=2
    )
    terms = draw(st.lists(st.tuples(words, coeffs), min_size=1, max_size=5))
    return HeckeElt(n, [(Word(n, w).to_perm(), LaurentPoly(c)) for w, c in terms])


@settings(deadline=None, max_examples=60)
@given(elements())
def test_invert_t_matches_reference(a):
    for w in a.terms:
        assert invert_t(w) == invert_t_reference(w)


@settings(deadline=None, max_examples=60)
@given(elements())
def test_bar_matches_reference(a):
    assert bar_involution(a) == bar_involution_reference(a)


@settings(deadline=None, max_examples=60)
@given(elements())
def test_right_letter_inverse_undoes_right_letter(a):
    for letter in alphabet(a.n):
        assert right_letter_inverse_reference(a.right_letter(letter), letter) == a
        assert right_letter_inverse_reference(a, letter).right_letter(letter) == a


def test_bar_matches_reference_on_a_whole_ball(fresh_bar_table):
    # every term's word shares suffixes with others, so the table is hit
    rng = random.Random(5)
    a = HeckeElt(3)
    for w in elements_ball(3, 4, 1):
        a = a + t_basis(w).scale(LaurentPoly({rng.randint(-3, 3): rng.randint(1, 3)}))
    assert bar_involution(a) == bar_involution_reference(a)


# -- the shared inverse table -------------------------------------------------


@settings(deadline=None, max_examples=40)
@given(st.lists(elements(scales=(1, 1, BIG, -BIG)), min_size=2, max_size=6))
def test_bar_call_sequences_match_reference(seq):
    # ranks 2, 3 and 4 interleave, and a wide call may widen a rank
    # between narrow ones; every call reads what the earlier ones stored
    hecke.clear_bar_table()
    for a in seq:
        assert bar_involution(a) == bar_involution_reference(a)


def test_wide_coefficients_open_a_wide_bucket(fresh_bar_table):
    rng = random.Random(3)
    ball = elements_ball(3, 4, 1)
    small = HeckeElt(3, [(w, LaurentPoly({rng.randint(-2, 2): rng.randint(1, 3)})) for w in ball])
    wide = HeckeElt(3, [(w, LaurentPoly({0: BIG, 1: -BIG})) for w in ball[::2]])
    # a wide call widens rank 3's one slot width; narrow calls then read
    # their inverses from wider slots than their bound needs
    assert bar_involution(small) == bar_involution_reference(small)
    assert hecke._TABLE.widths[3] <= 32
    for a in (wide, small, wide.scale(-1), small + t_basis(ball[-1]), small):
        assert bar_involution(a) == bar_involution_reference(a)
    assert hecke._TABLE.widths[3] >= 64


def test_each_rank_keeps_its_own_width(fresh_bar_table):
    # a wide call widens only its own rank: the other rank keeps its width
    # and its stored inverses, and narrow calls of both ranks stay exact
    rng = random.Random(4)
    small = {n: HeckeElt(n, [(w, LaurentPoly({rng.randint(-2, 2): rng.randint(1, 3)}))
                             for w in elements_ball(n, 3, 1)]) for n in (3, 4)}
    table = hecke._TABLE

    def stored(n):
        return {u: entry for u, entry in table.inverses.items() if len(u) == n}

    for a in (small[3], small[4], small[4].scale(BIG), small[3]):
        assert bar_involution(a) == bar_involution_reference(a)
    wide4, kept4 = table.widths[4], stored(4)
    assert table.widths[3] <= 32 < 64 <= wide4 and stored(3)
    assert table.open(3, BIG) >= 64  # widening rank 3 drops only rank 3's inverses
    assert stored(3) == {} and stored(4) == kept4
    for a in (small[4], small[3], small[3].scale(-BIG), small[4].scale(BIG)):
        assert bar_involution(a) == bar_involution_reference(a)
    assert table.widths[4] == wide4 and stored(4) == kept4 and stored(3)
    assert table.terms == sum(len(ids) for ids, _ in table.inverses.values())


def test_repeated_bar_takes_no_letter_steps(fresh_bar_table, monkeypatch):
    taken = []
    step = hecke._step_inverse
    monkeypatch.setattr(hecke, "_step_inverse", lambda *args: taken.append(1) or step(*args))
    a = HeckeElt(3, [(w, LaurentPoly({1: 2, 3: -1})) for w in elements_ball(3, 3, 1)])
    first = bar_involution(a)
    assert taken
    taken.clear()
    assert bar_involution(a) == first == bar_involution_reference(a)
    assert taken == []


@pytest.mark.parametrize("cap", [2, 40, 300])
def test_a_small_cap_clears_the_table_and_keeps_the_outputs(fresh_bar_table, monkeypatch, cap):
    monkeypatch.setattr(hecke, "BAR_TABLE_CAP", cap)
    clears = []
    clear = hecke._TABLE.clear
    monkeypatch.setattr(hecke._TABLE, "clear", lambda: clears.append(clear()))
    rng = random.Random(cap)
    balls = {n: elements_ball(n, 4, 1) for n in (2, 3, 4)}
    for _ in range(12):
        n = rng.choice((2, 3, 4))
        terms = rng.sample(balls[n], min(6, len(balls[n])))
        a = HeckeElt(n, [(w, LaurentPoly({rng.randint(-3, 3): rng.choice((1, -2, BIG))})) for w in terms])
        assert bar_involution(a) == bar_involution_reference(a)
        assert hecke._TABLE.terms <= cap
        # invert_t reads and fills the same table between the bar calls
        w = rng.choice(balls[n])
        assert invert_t(w) == invert_t_reference(w)
        assert hecke._TABLE.terms <= cap
    assert clears


def test_crossing_the_cap_inside_a_call_clears_only_at_the_next_call(fresh_bar_table, monkeypatch):
    # the inverses of one bar call pass the cap: the call still reads every
    # inverse by the ids it gave out, keeps the table under the cap and marks
    # it full; the next call, and not this one, clears it
    cap = 50
    monkeypatch.setattr(hecke, "BAR_TABLE_CAP", cap)
    clears = []
    clear = hecke._TABLE.clear
    monkeypatch.setattr(hecke._TABLE, "clear", lambda: clears.append(clear()))
    rng = random.Random(7)
    ball = elements_ball(3, 4, 1)
    a = HeckeElt(3, [(w, LaurentPoly({rng.randint(-2, 2): rng.randint(1, 3)})) for w in ball])
    assert sum(len(invert_t_reference(w.inverse()).terms) for w in ball) > cap

    def due():  # whether the next call must clear the table at its start
        return hecke._TABLE.full or len(hecke._TABLE) > cap

    for w in rng.sample(ball, 4):
        before = len(clears) + due()
        assert bar_involution(a) == bar_involution_reference(a)
        assert len(clears) == before
        assert hecke._TABLE.full and hecke._TABLE.terms <= cap
        assert invert_t(w) == invert_t_reference(w)
        assert len(clears) == before + 1
        assert hecke._TABLE.terms <= cap


def test_a_bar_check_holds_one_unstored_inverse_at_a_time(fresh_bar_table, monkeypatch):
    # with a cap of 0 no inverse is stored, so each term's inverse is built,
    # read and dropped; a check that kept every inverse until it summed them
    # would peak above their summed size
    w = longest_in_double_coset((4, 0, 0))  # l = 11, 90 terms in b_w
    rec = hecke.KLValue.of(canonical_basis(w).value)
    hecke.clear_bar_table()
    monkeypatch.setattr(hecke, "BAR_TABLE_CAP", 0)
    read = []
    inverse = hecke._inverse

    def sizing(u, width):
        ids, ints = entry = inverse(u, width)
        read.append(sys.getsizeof(ids) + sys.getsizeof(ints) + sum(map(sys.getsizeof, ints)))
        return entry

    monkeypatch.setattr(hecke, "_inverse", sizing)
    tracemalloc.start()
    try:
        assert rec.is_bar_invariant()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(read) == len(rec.elt.terms)
    assert peak < sum(read)
