"""Window permutations: group law, length, words, positivity, Bruhat order."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import affhecke
from affhecke import AffinePerm, Word
from affhecke.errors import NotPositiveError, RankMismatchError, NegativeEntryError
from affhecke.weyl import (
    RHO,
    RHO_INV,
    coxeter_ball,
    dom,
    finite_permutations,
    letter_action,
    positive_elements,
)
from weyl_helpers import coxeter_count, elements_ball, rho_inv_count
from weyl_reference import (
    coxeter_ball_reference,
    length_reference,
    letter_perm_reference,
    parabolic_reference,
    positive_reduced_word_reference,
    reduced_word_reference,
)


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


@pytest.mark.parametrize("n, max_length", [(3, 5), (4, 3)])
def test_letter_action_matches_compose_and_length(n, max_length):
    # every letter's move and descent, on a ball twisted by rho^z, against the
    # composite with the letter's permutation and the drop in length
    twisted = [c.compose(AffinePerm.rho(n, z))
               for c in coxeter_ball_reference(n, max_length) for z in range(-2, 3)]
    for letter in (*range(n), RHO, RHO_INV):
        move, descent = letter_action(n, letter)
        step = letter_perm_reference(n, letter)
        for w in twisted:
            ws = w.compose(step)
            assert move(w.window) == ws.window, (w, letter)
            if descent is None:
                assert letter in (RHO, RHO_INV)
                continue
            a, b, off = descent
            assert (w.window[a] - off > w.window[b]) == (ws.length() < w.length()), (w, letter)
            assert w.has_right_descent(letter) == (ws.length() < w.length())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_coxeter_ball_with_letters_matches_the_references(n):
    alphabet = range(n) if n > 1 else ()
    assert coxeter_ball(n, 4) == coxeter_ball_reference(n, 4)
    for size in range(len(alphabet) + 1):
        for letters in itertools.combinations(alphabet, size):
            assert coxeter_ball(n, 4, letters) == coxeter_ball_reference(n, 4, letters), letters
            if size < n:  # a proper subset generates a finite parabolic subgroup
                whole = coxeter_ball(n, n * (n - 1) // 2, letters)
                assert whole == parabolic_reference(n, letters), letters


def test_rank_one_ball_is_the_identity():
    # the degree-0 group at n = 1 is trivial: there is no simple reflection
    for max_length in range(4):
        assert coxeter_ball(1, max_length) == (AffinePerm.identity(1),)
        assert coxeter_ball(1, max_length, ()) == (AffinePerm.identity(1),)


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
        assert set(word) <= set(range(1, n)) | {RHO_INV}


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


# Run in a child process with a time limit and a 1 GiB address-space cap,
# so a walk that never stops fails the test instead of filling memory.
BROKEN_WALKS = """
import json, math, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from affhecke import weyl
from affhecke.errors import InternalInvariantError
exact = weyl.letter_action


def broken(fault):
    def action(n, letter):
        move, descent = exact(n, letter)
        if fault == "s0 offset dropped" and letter == 0:
            descent = descent[:2] + (0,)
        if fault == "s1 always a descent" and letter == 1:
            descent = descent[:2] + (-math.inf,)
        return move, descent
    return action


out = []
for fault, walk, window in json.loads(sys.argv[1]):
    weyl.letter_action = broken(fault)
    try:
        out.append(str(getattr(weyl.AffinePerm(3, window), walk)()))
    except InternalInvariantError:
        out.append("InternalInvariantError")
print(json.dumps(out))
"""


def test_walks_stop_after_their_length_under_a_broken_descent():
    # with the s_0 offset dropped, s_0 reads as a descent of every window
    # whose last value passes its first: the walk on w^-1 tries s_0 first
    # and goes wrong; the positive walk tries s_0 last, where only a rho
    # power is misread, so it returns its l(w) letters before that
    cases = [
        ("s0 offset dropped", "reduced_word", (2, 1, 3)),
        ("s0 offset dropped", "positive_reduced_word", (2, 1, 3)),
        ("s1 always a descent", "reduced_word", (1, 3, 2)),
        ("s1 always a descent", "positive_reduced_word", (1, 3, 2)),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(affhecke.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", BROKEN_WALKS, json.dumps(cases)],
                          capture_output=True, text=True, timeout=30, env=env)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["InternalInvariantError", "s1", "InternalInvariantError",
                                       "InternalInvariantError"]


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

def test_dom():
    assert dom((0, 2, 1)) == (2, 1, 0)
    assert dom((2, 1, 0)) == (2, 1, 0)
    with pytest.raises(NegativeEntryError):
        dom((-1, 2))


def test_word_parse_round_trip():
    word = Word.parse(3, "s1 s0 r-")
    assert str(word) == "s1 s0 r-"
    assert coxeter_count(word) == 2 and rho_inv_count(word) == 1
    assert Word.parse(3, str(word)) == word
    assert eval(repr(word), {"Word": Word}) == word and hash(Word(3, [1, 0, "r-"])) == hash(word)
    w = word.to_perm()
    assert eval(repr(w), {"AffinePerm": AffinePerm}) == w


def test_rank_one_words_have_no_coxeter_letters():
    # at n = 1 there is no simple reflection, only rho and its inverse
    assert Word(1, ["r", RHO_INV]).to_perm() == AffinePerm.identity(1)
    with pytest.raises(ValueError):
        Word(1, [0])
    with pytest.raises(ValueError):
        Word.parse(1, "s0 r")


@pytest.mark.parametrize("n,text", [(2, "s²"), (2, "s" + "9" * 5000), (2, "s7"), (3, "s" + "0" * 5000 + "3")])
def test_word_parse_refuses_a_bad_letter_as_a_parse_error(n, text):
    with pytest.raises(affhecke.ElementParseError):
        Word.parse(n, text)


def test_word_parse_reads_any_decimal_index():
    assert Word.parse(2, "s01") == Word(2, [1])
    assert Word.parse(4, "s٣") == Word(4, [3])  # ARABIC-INDIC DIGIT THREE
    assert Word.parse(2, "s" + "0" * 5000 + "1") == Word(2, [1])
