"""Generic algebra in the T-basis: presentations, inverses, Bernstein part."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from affhecke import (
    AffinePerm,
    HeckeElt,
    LaurentPoly,
    invert_t,
    one,
    t_basis,
    t_tilde,
    x_element,
    x_element_inverse,
    x_monomial,
)
from affhecke import hecke
from affhecke.errors import NegativeEntryError, RankMismatchError
from affhecke.weyl import RHO_INV, Word, coxeter_ball, finite_permutations
from hecke_reference import hecke_from_json, x_element_inverse_reference, x_element_reference
from weyl_helpers import elements_ball

V2 = LaurentPoly({2: 1})
Q = LaurentPoly({-2: 1})
Q_MINUS_ONE = LaurentPoly({-2: 1, 0: -1})


def random_element(n, rng, terms=3, spread=1):
    out = HeckeElt(n)
    for _ in range(terms):
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        lam = tuple(rng.randint(-spread, spread) for _ in range(n))
        coeff = LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
        out = out + t_basis(AffinePerm.from_pair(sigma, lam)).scale(coeff)
    return out


# -- presentation by the T-basis ---------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_quadratic_relation_all_simple_reflections(n):
    for i in range(n):
        ts = t_basis(AffinePerm.s(n, i))
        assert ts * ts == ts.scale(Q_MINUS_ONE) + one(n).scale(Q)


def test_length_additive_products():
    rng = random.Random(11)
    n = 3
    for _ in range(60):
        u = random.Random(rng.random()).choice(elements_ball(n, 3, 1))
        w = random.Random(rng.random()).choice(elements_ball(n, 3, 1))
        if u.compose(w).length() == u.length() + w.length():
            assert t_basis(u) * t_basis(w) == t_basis(u.compose(w))


def test_rho_products_are_always_single_terms():
    n = 3
    for w in coxeter_ball(n, 3):
        for z in (-2, -1, 1, 2):
            rho = AffinePerm.rho(n, z)
            assert t_basis(w) * t_basis(rho) == t_basis(w.compose(rho))
            assert t_basis(rho) * t_basis(w) == t_basis(rho.compose(w))


def test_associativity_on_random_triples():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.choice((2, 3))
        a = random_element(n, rng)
        b = random_element(n, rng)
        c = random_element(n, rng)
        assert (a * b) * c == a * (b * c)


def _greedy_product(u, w):
    # length-additive closure: absorb each letter only when it goes up
    out = u
    for a in w.reduced_word():
        if isinstance(a, str):
            out = out.compose(AffinePerm.rho(u.n, 1 if a == "r" else -1))
            continue
        step = out.compose(AffinePerm.s(u.n, a))
        if step.length() > out.length():
            out = step
    return out


def test_support_stays_below_greedy_product():
    n = 3
    ball = coxeter_ball(n, 2)
    for u in ball:
        for w in ball:
            top = _greedy_product(u, w)
            uw = u.compose(w)
            for x, _ in (t_basis(u) * t_basis(w)).sorted_terms():
                assert x.degree() == uw.degree()
                assert x.bruhat_leq(top)


# -- inversion -----------------------------------------------------------------

def test_invert_t_examples():
    n = 2
    e = AffinePerm.identity(n)
    s1 = AffinePerm.s(n, 1)
    assert invert_t(e) == one(n)
    assert invert_t(s1) == t_basis(s1).scale(V2) + one(n).scale(LaurentPoly({2: 1, 0: -1}))


def test_invert_t_is_a_two_sided_inverse():
    for w in coxeter_ball(3, 3):
        assert invert_t(w) * t_basis(w) == one(3)
        assert t_basis(w) * invert_t(w) == one(3)
    rho = AffinePerm.rho(3, -1)
    assert invert_t(rho) * t_basis(rho) == one(3)


# -- the commuting translation family ------------------------------------------

def test_x_frozen_values():
    n = 2
    assert x_element(n, 1) == t_basis(AffinePerm(2, (-1, 2))).scale(LaurentPoly({-1: 1}))
    assert x_monomial(n, (0, 0)) == one(n)
    assert x_monomial(n, (1, 1)) == t_basis(AffinePerm.translation((-1, -1)))
    for n in range(2, 6):
        # X_1 = v^{1-n} T_1 T_2 ... T_{n-1} T_{rho^-1} is a single term
        product = one(n)
        for i in range(1, n):
            product = product * t_basis(AffinePerm.s(n, i))
        product = product * t_basis(AffinePerm.rho(n, -1))
        assert len(product.terms) == 1
        assert x_element(n, 1) == product.scale(LaurentPoly({1 - n: 1}))
        assert x_element_inverse(n, 1) * x_element(n, 1) == one(n)
        assert x_element(n, 1) * x_element_inverse(n, 1) == one(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_x_closed_forms_match_the_recursion(n):
    for i in range(1, n + 1):
        assert x_element(n, i) == x_element_reference(n, i)
        assert x_element_inverse(n, i) == x_element_inverse_reference(n, i)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_the_x_charge_is_what_budgeted_inverse_letters_plan(n):
    # X_i = v^{2i-1-n} T_u T_{s_1}^-1 ... T_{s_{i-1}}^-1 with u = s_i ... s_{n-1} rho^-1,
    # built here by the inverses and products a request charges
    for i in range(1, n + 1):
        steps = []

        def charge(work, bits, dry_run):
            steps.append(work)

        cur = t_basis(Word(n, [*range(i, n), RHO_INV]).to_perm())
        for j in range(1, i):
            cur = hecke.product(cur, invert_t(AffinePerm.s(n, j), charge), charge)
        assert cur.scale(LaurentPoly({2 * i - 1 - n: 1})) == x_element(n, i)
        assert sum(steps) == hecke.x_element_steps(i) == 6 * (2 ** (i - 1) - 1) + 4 * (i - 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_second_presentation_relations(n):
    ident = one(n)
    ts = {i: t_basis(AffinePerm.s(n, i)) for i in range(1, n)}
    tinv = {i: invert_t(AffinePerm.s(n, i)) for i in range(1, n)}
    xs = {i: x_element(n, i) for i in range(1, n + 1)}
    xinv = {i: x_element_inverse(n, i) for i in range(1, n + 1)}
    for i in ts:
        for j in ts:
            if abs(i - j) > 1:
                assert ts[i] * ts[j] == ts[j] * ts[i]
    for i in range(1, n - 1):
        assert ts[i] * ts[i + 1] * ts[i] == ts[i + 1] * ts[i] * ts[i + 1]
    for i in ts:
        assert ts[i] * tinv[i] == ident and tinv[i] * ts[i] == ident
        assert ts[i] * ts[i] == ts[i].scale(Q_MINUS_ONE) + ident.scale(Q)
    for i in xs:
        assert xs[i] * xinv[i] == ident and xinv[i] * xs[i] == ident
    for i in xs:
        for j in ts:
            if i != j and i != j + 1:
                assert xs[i] * ts[j] == ts[j] * xs[i]
    # cross relation in the convention used throughout: T_j X_{j+1} T_j = v^2 X_j
    for j in ts:
        assert ts[j] * xs[j + 1] * ts[j] == xs[j].scale(V2)


def test_x_family_commutes_n4():
    xs = [x_element(4, i) for i in range(1, 5)]
    for a, b in itertools.combinations(xs, 2):
        assert a * b == b * a


@pytest.mark.parametrize("n", [2, 3])
def test_dominant_monomials_are_single_terms(n):
    for total in range(5):
        for lam in itertools.product(range(total, -1, -1), repeat=n):
            if sum(lam) != total or any(lam[i] < lam[i + 1] for i in range(n - 1)):
                continue
            elt = x_monomial(n, lam)
            terms = elt.sorted_terms()
            assert len(terms) == 1
            w, coeff = terms[0]
            assert w == AffinePerm.translation(tuple(-a for a in lam))
            assert coeff == LaurentPoly({-w.length(): 1})
            assert w.is_positive()
            assert elt == t_tilde(w)


def test_x_monomial_rejects_negative_exponents():
    with pytest.raises(NegativeEntryError):
        x_monomial(2, (1, -1))


def test_monomial_order_does_not_matter():
    n = 3
    mu = (2, 0, 1)
    prod_forward = one(n)
    for i, k in enumerate(mu, start=1):
        for _ in range(k):
            prod_forward = prod_forward * x_element(n, i)
    prod_backward = one(n)
    for i, k in reversed(list(enumerate(mu, start=1))):
        for _ in range(k):
            prod_backward = prod_backward * x_element(n, i)
    assert prod_forward == prod_backward == x_monomial(n, mu)


# -- element plumbing -----------------------------------------------------------

def test_rank_mismatch_is_refused():
    with pytest.raises(RankMismatchError):
        one(2) * one(3)
    with pytest.raises(RankMismatchError):
        one(2) + one(3)


def test_json_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        a = random_element(3, rng)
        blob = a.to_json()
        windows = [rec["window"] for rec in blob]
        assert windows == sorted(windows)
        assert hecke_from_json(3, blob) == a
        assert eval(repr(a), {"HeckeElt": HeckeElt, "AffinePerm": AffinePerm, "LaurentPoly": LaurentPoly}) == a


def test_integer_scalars_multiply_on_either_side():
    e = t_basis(AffinePerm.s(2, 1))
    assert str(2 * e) == "2*T[s1]" and str(e * 3) == "3*T[s1]"
    assert bool(e) and not e - e


def test_t_tilde_normalization():
    w = AffinePerm.s(3, 1).compose(AffinePerm.s(3, 2))
    assert t_tilde(w) == t_basis(w).scale(LaurentPoly({-2: 1}))
