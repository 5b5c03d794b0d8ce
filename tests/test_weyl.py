"""Window permutations: group law, length, words, positivity, Bruhat order."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from affhecke import AffinePerm, Word
from affhecke.errors import NotPositiveError, RankMismatchError, NegativeEntryError
from affhecke.weyl import (
    RHO_INV,
    compositions,
    coxeter_ball,
    dom,
    finite_permutations,
    omega,
    positive_elements,
    reverse,
)
from weyl_helpers import coxeter_count, elements_ball, rho_inv_count
from weyl_reference import length_reference, positive_reduced_word_reference, reduced_word_reference


def perms(n, spread=2):
    sigmas = st.permutations(list(range(1, n + 1)))
    lams = st.tuples(*[st.integers(min_value=-spread, max_value=spread)] * n)
    return st.builds(AffinePerm.from_pair, sigmas, lams)


# -- frozen generator arithmetic --------------------------------------------

def test_compose_examples():
    n = 2
    s1 = AffinePerm.s(n, 1)
    assert s1.compose(AffinePerm.rho(n, -1)).window == (-1, 2)
    assert AffinePerm.rho(n).compose(AffinePerm.rho(n, -1)) == AffinePerm.identity(n)


@pytest.mark.parametrize("n", [3, 4])
def test_rho_conjugation_shifts_indices(n):
    rho = AffinePerm.rho(n)
    rho_inv = AffinePerm.rho(n, -1)
    for i in range(n):
        lhs = rho_inv.compose(AffinePerm.s(n, i)).compose(rho)
        assert lhs == AffinePerm.s(n, (i - 1) % n)


def test_pair_examples():
    n = 3
    sigma, lam = AffinePerm.rho(n, -1).to_pair()
    assert sigma == (3, 1, 2)
    assert lam == (0, 0, -1)
    assert AffinePerm(2, (-1, 2)).to_pair() == ((1, 2), (-1, 0))
    assert AffinePerm.identity(n).to_pair() == ((1, 2, 3), (0, 0, 0))


def test_length_examples():
    assert AffinePerm.rho(2).length() == 0
    assert AffinePerm(2, (0, 3)).length() == 1
    assert AffinePerm(2, (-1, 2)).length() == 1
    assert AffinePerm.s(3, 0).length() == 1


def test_degree_examples():
    assert AffinePerm.rho(2, -1).degree() == -1
    assert AffinePerm.s(3, 2).degree() == 0


def test_window_validation():
    with pytest.raises(ValueError):
        AffinePerm(2, (1, 3))            # residues collide mod 2
    with pytest.raises(RankMismatchError):
        AffinePerm.s(2, 1).compose(AffinePerm.s(3, 1))


# -- group structure ----------------------------------------------------------

@given(perms(3), perms(3), perms(3))
def test_group_axioms(u, w, x):
    assert u.compose(w).compose(x) == u.compose(w.compose(x))
    e = AffinePerm.identity(3)
    assert u.compose(e) == u and e.compose(u) == u
    assert u.compose(u.inverse()) == e
    assert u.inverse().compose(u) == e


@given(perms(3), perms(3))
def test_degree_is_a_homomorphism(u, w):
    assert u.compose(w).degree() == u.degree() + w.degree()


@given(perms(3))
def test_pair_round_trip(w):
    sigma, lam = w.to_pair()
    assert AffinePerm.from_pair(sigma, lam) == w
    # the pair realizes w(i) = sigma(i) + n*lam_{sigma(i)}
    assert all(w.apply(i + 1) == sigma[i] + 3 * lam[sigma[i] - 1] for i in range(3))


@given(perms(3))
def test_length_of_inverse(w):
    assert w.length() == w.inverse().length()


@given(perms(3), st.integers(min_value=0, max_value=2))
def test_right_descent_matches_length_drop(w, i):
    ws = w.compose(AffinePerm.s(3, i))
    if w.has_right_descent(i):
        assert ws.length() == w.length() - 1
        assert w.apply(i if i else 3) - (0 if i else 3) > w.apply(i + 1)
    else:
        assert ws.length() == w.length() + 1


@given(perms(3))
def test_periodicity_and_residues(w):
    assert all(w.apply(x + 3) == w.apply(x) + 3 for x in range(-4, 5))
    assert sorted(v % 3 for v in w.window) == [0, 1, 2]


# -- reduced words ------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_reduced_word_exhaustive(n):
    for w in elements_ball(n, max_length=4, max_height=2):
        word = w.reduced_word()
        assert word.to_perm() == w
        assert coxeter_count(word) == w.length()
        assert rho_inv_count(word) + sum(1 for a in word if a == "r") >= abs(w.degree())


def test_reduced_word_examples():
    assert len(AffinePerm.identity(2).reduced_word()) == 0
    assert list(AffinePerm.rho(2, -1).reduced_word()) == [RHO_INV]
    word = AffinePerm(2, (-1, 2)).reduced_word()
    assert coxeter_count(word) == 1 and word.to_perm() == AffinePerm(2, (-1, 2))


@pytest.mark.parametrize("n", [2, 3])
def test_positive_word_exhaustive(n):
    for w in positive_elements(n, max_length=4, min_degree=-3):
        word = w.positive_reduced_word()
        assert word.to_perm() == w
        assert coxeter_count(word) == w.length()
        assert rho_inv_count(word) == -w.degree()
        assert word.alphabet() <= set(range(1, n)) | {RHO_INV}


@pytest.mark.parametrize("n, max_length", [(2, 6), (3, 5), (4, 4)])
def test_walks_match_the_per_letter_references(n, max_length):
    for w in elements_ball(n, max_length, max_height=3):
        assert w.length() == length_reference(w)
        assert w.reduced_word() == reduced_word_reference(w)
    for w in positive_elements(n, max_length, min_degree=-3):
        assert w.positive_reduced_word() == positive_reduced_word_reference(w)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from((2, 3, 4)).flatmap(lambda n: perms(n, spread=40)))
def test_long_walks_match_the_per_letter_references(w):
    assert w.length() == length_reference(w)
    assert w.reduced_word() == reduced_word_reference(w)
    positive = AffinePerm(w.n, [x - w.n * (max(w.window) // w.n + 1) for x in w.window])
    assert positive.positive_reduced_word() == positive_reduced_word_reference(positive)


def test_positive_word_rejects_outside_cone():
    with pytest.raises(NotPositiveError):
        AffinePerm.rho(2).positive_reduced_word()
    with pytest.raises(NotPositiveError):
        AffinePerm(2, (0, 3)).positive_reduced_word()


@given(perms(2, 1), perms(2, 1))
def test_positive_cone_is_a_subsemigroup(u, w):
    if u.is_positive() and w.is_positive():
        assert u.compose(w).is_positive()


def test_positivity_examples():
    assert AffinePerm.rho(2, -1).is_positive()
    assert not AffinePerm.rho(2).is_positive()
    assert all(w.is_positive() for w in finite_permutations(3))


# -- Bruhat order -------------------------------------------------------------

def _subword_reachable(x, w):
    letters = [a for a in w.reduced_word() if not isinstance(a, str)]
    n, lx = x.n, x.length()
    for size in range(lx, lx + 1):
        for picks in itertools.combinations(letters, size):
            word = Word(n, list(picks) + ["r"] * w.degree() if w.degree() >= 0
                        else list(picks) + [RHO_INV] * (-w.degree()))
            if word.to_perm() == x:
                return True
    return False


def test_bruhat_subword_cross_check():
    ball = coxeter_ball(3, 3)
    for w in ball:
        for x in ball:
            assert x.bruhat_leq(w) == _subword_reachable(x, w)


def test_bruhat_examples():
    n = 3
    e = AffinePerm.identity(n)
    s1, s2 = AffinePerm.s(n, 1), AffinePerm.s(n, 2)
    assert e.bruhat_leq(s1.compose(s2))
    assert s1.bruhat_leq(s1.compose(s2))
    assert not s1.bruhat_leq(AffinePerm.rho(n))     # degree mismatch
    assert not s1.compose(s2).bruhat_leq(s1)


def test_bruhat_is_a_partial_order():
    ball = coxeter_ball(3, 3)
    for w in ball:
        assert w.bruhat_leq(w)
    for w in ball:
        for x in ball:
            if x.bruhat_leq(w) and w.bruhat_leq(x):
                assert x == w
            if x.bruhat_leq(w):
                assert x.length() <= w.length()


def test_bruhat_on_long_elements_does_not_recurse():
    # length 2800: one descent step per unit of length, far past the
    # interpreter's recursion limit
    w = AffinePerm.translation((700, 0, -700))
    assert w.length() == 2800
    assert AffinePerm.identity(3).bruhat_leq(w)
    assert not w.bruhat_leq(AffinePerm.identity(3))


# -- compositions and partitions ---------------------------------------------

def test_dom_and_reverse():
    assert dom((0, 2, 1)) == (2, 1, 0)
    assert dom((2, 1, 0)) == (2, 1, 0)
    assert reverse((2, 1, 0)) == (0, 1, 2)
    with pytest.raises(NegativeEntryError):
        dom((-1, 2))


def test_composition_utilities():
    assert omega(2, 3) == (1, 1, 0)
    assert set(compositions(2, 2)) == {(2, 0), (1, 1), (0, 2)}
    assert all(sum(c) == 3 for c in compositions(3, 2))


def test_word_parse_round_trip():
    word = Word.parse(3, "s1 s0 r-")
    assert str(word) == "s1 s0 r-"
    assert coxeter_count(word) == 2 and rho_inv_count(word) == 1
    assert Word.parse(3, str(word)) == word
