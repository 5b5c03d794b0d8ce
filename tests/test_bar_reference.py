"""Inverse letter steps and the shared-suffix bar involution against the
product-based reference forms in hecke_reference."""

import random

from hypothesis import given, settings, strategies as st

from affhecke import HeckeElt, LaurentPoly, bar_involution, invert_t, t_basis
from affhecke.weyl import RHO, RHO_INV, Word
from weyl_helpers import elements_ball
from hecke_reference import bar_involution_reference, invert_t_reference


def alphabet(n):
    return list(range(n)) + [RHO, RHO_INV]


@st.composite
def elements(draw):
    """Random elements at n in {2,3,4}; rho letters give terms of nonzero degree."""
    n = draw(st.sampled_from((2, 3, 4)))
    words = st.lists(st.sampled_from(alphabet(n)), max_size=8)
    coeffs = st.dictionaries(
        st.integers(-3, 3), st.integers(-3, 3).filter(bool), min_size=1, max_size=2
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
        assert a.right_letter(letter).right_letter_inverse(letter) == a
        assert a.right_letter_inverse(letter).right_letter(letter) == a


def test_bar_matches_reference_on_a_whole_ball():
    # every term's word shares suffixes with others, so the memo is hit
    rng = random.Random(5)
    a = HeckeElt(3)
    for w in elements_ball(3, 4, 1):
        a = a + t_basis(w).scale(LaurentPoly({rng.randint(-3, 3): rng.randint(1, 3)}))
    assert bar_involution(a) == bar_involution_reference(a)
