"""Bar involution and the canonical basis, plus its quotient images."""

import functools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from affhecke import (
    AffinePerm,
    InternalInvariantError,
    IdealSpec,
    LaurentPoly,
    bar_involution,
    canonical_basis,
    in_ideal,
    invert_t,
    one,
    positive_canonical_basis,
    quotient_canonical_basis,
    t_basis,
)
from affhecke import canonical, hecke
from affhecke.errors import ResourceLimitError
from affhecke.laurent import v_power
from affhecke.weyl import coxeter_ball, finite_permutations
from hecke_reference import canonical_value_reference
from test_kernel import RANKS, assert_record_bounds, element
from weyl_helpers import elements_ball

V = LaurentPoly({1: 1})


def test_bar_examples():
    n = 2
    e = AffinePerm.identity(n)
    s1 = AffinePerm.s(n, 1)
    rho = AffinePerm.rho(n)
    assert bar_involution(t_basis(e)) == t_basis(e)
    assert bar_involution(t_basis(s1)) == invert_t(s1)
    assert bar_involution(t_basis(rho)) == t_basis(rho)


def test_bar_is_a_semilinear_ring_involution():
    rng = random.Random(13)
    from test_hecke import random_element

    for _ in range(25):
        a = random_element(3, rng)
        b = random_element(3, rng)
        assert bar_involution(bar_involution(a)) == a
        assert bar_involution(a * b) == bar_involution(a) * bar_involution(b)
        c = LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
        assert bar_involution(a.scale(c)) == bar_involution(a).scale(c.bar())


def test_frozen_small_elements():
    n = 3
    e = AffinePerm.identity(n)
    assert canonical_basis(e).value == one(n)
    for i in range(n):
        si = AffinePerm.s(n, i)
        assert canonical_basis(si).value == (t_basis(si) + one(n)).scale(V)
    w0 = AffinePerm.from_pair((3, 2, 1), (0, 0, 0))
    expected = sum(
        (t_basis(x) for x in finite_permutations(n)),
        start=one(n) - one(n),
    ).scale(LaurentPoly({3: 1}))
    assert canonical_basis(w0).value == expected


def _check_invariants(w, value):
    lw = w.length()
    assert bar_involution(value) == value
    assert value.coeff(w) == LaurentPoly({lw: 1})
    for x, c in value.sorted_terms():
        if x == w:
            continue
        assert x.bruhat_leq(w) and x != w
        assert all(coef > 0 for _, coef in c.items())
        assert c.valuation() >= x.length() + 1


def test_invariants_on_a_ball():
    for w in elements_ball(3, max_length=4, max_height=1):
        _check_invariants(w, canonical_basis(w).value)


def test_self_check_bites_on_a_warm_table(fresh_bar_table, monkeypatch):
    # the bar check reads inverses that other calls stored; a wrong
    # coefficient that keeps the leading term and the valuation bound must
    # still fail it.  The sweep stores about 1,200 terms, so the cap clears.
    monkeypatch.setattr(hecke, "BAR_TABLE_CAP", 600)
    clears = []
    clear = hecke._TABLE.clear
    monkeypatch.setattr(hecke._TABLE, "clear", lambda: clears.append(clear()))
    ball = coxeter_ball(3, 6)
    for w in ball:
        canonical_basis(w)
        assert hecke._TABLE.terms <= 600
    assert clears
    w = max(ball, key=lambda u: (len(canonical_basis(u).value.terms), u.window))
    canonical_basis(w)
    value = canonical._canonical_value(w).elt  # the cached object canonical_basis reads
    x = next(x for x in value.terms if x != w and x.window in hecke._TABLE.inverses)
    monkeypatch.setitem(value.terms, x, value.terms[x] + v_power(x.length() + 1))
    with pytest.raises(InternalInvariantError, match="not bar-invariant"):
        canonical_basis(w)
    assert hecke._TABLE.terms <= 600


def test_each_window_computes_its_length_a_few_times(fresh_bar_table, monkeypatch):
    # kl_step names its terms by the shared table's one AffinePerm per
    # window, so l(x) is computed again only for fresh objects
    monkeypatch.setattr(canonical, "_canonical_value", functools.lru_cache(maxsize=4096)(
        canonical._canonical_value.__wrapped__))
    first = []
    length = AffinePerm.length
    def counted(self):
        if self._length is None:
            first.append(self.window)
        return length(self)
    monkeypatch.setattr(AffinePerm, "length", counted)
    for n, max_length in ((3, 6), (4, 4)):
        for w in coxeter_ball(n, max_length):
            canonical_basis(w)
    assert len(first) <= 4 * len(set(first))


def test_no_coefficient_is_scanned_again_in_the_recursion(fresh_bar_table, monkeypatch):
    # kl_step and _verify read heights, degrees and bar bounds off the
    # records, so neither scans a coefficient for them, however deep the call
    monkeypatch.setattr(canonical, "_canonical_value", functools.lru_cache(maxsize=4096)(
        canonical._canonical_value.__wrapped__))
    callers = {hecke.kl_step.__code__, canonical._verify.__code__}
    calls = []
    def counted(method):
        def wrapper(self):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code not in callers:
                frame = frame.f_back
            if frame is not None:
                calls.append(method.__name__)
            return method(self)
        return wrapper
    for name in ("height", "degree", "norm1"):
        monkeypatch.setattr(LaurentPoly, name, counted(getattr(LaurentPoly, name)))
    for n, max_length in ((3, 6), (4, 4)):
        for w in coxeter_ball(n, max_length):
            canonical_basis(w)
    assert calls == []


def test_record_bounds_dominate():
    # the valuation of every cached record is exact, its bounds at least the exact values
    twisted = [w for w in elements_ball(3, max_length=4, max_height=2) if w.degree()]
    indices = [b.index for b in positive_canonical_basis(2, 3, 2)]
    for w in (*coxeter_ball(3, 9), *coxeter_ball(4, 6), *twisted, *indices):
        canonical_basis(w)
        assert_record_bounds(canonical._canonical_value(w))


def test_packed_recursion_matches_the_reference():
    memo = {}
    twisted = [w for w in elements_ball(3, max_length=4, max_height=2) if w.degree()]
    for w in (*coxeter_ball(3, 7), *coxeter_ball(4, 5), *twisted):
        assert canonical_basis(w).value == canonical_value_reference(w, memo)
    for b in positive_canonical_basis(2, 3, 2):
        assert b.value == canonical_value_reference(b.index, memo)


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_packed_invariance_test_matches_the_bar(data):
    n = data.draw(RANKS)
    a = data.draw(element(n))
    invariant = a + bar_involution(a)
    assert hecke.KLValue.of(invariant).is_bar_invariant()
    for elt in (a, invariant + data.draw(element(n, max_terms=1))):
        assert hecke.KLValue.of(elt).is_bar_invariant() == (bar_involution(elt) == elt)


def test_packed_invariance_test_on_edge_cases():
    # exponents of bar(a) start at -top = -1, and a has one at -3
    e = AffinePerm.identity(2)
    a = t_basis(e).scale(LaurentPoly({-3: 1, 1: 1}))
    assert not hecke.KLValue.of(a).is_bar_invariant()
    assert bar_involution(a) != a
    assert not hecke.KLValue.of(t_basis(e).scale(v_power(-2))).is_bar_invariant()
    assert hecke.KLValue.of(t_basis(e).scale(LaurentPoly({-3: 1, 3: 1}))).is_bar_invariant()
    assert hecke.KLValue.of(t_basis(e) - t_basis(e)).is_bar_invariant()
    # bar(v T_s) = v T_s + (v - v^-1) T_e agrees with v T_s on its support
    s1 = AffinePerm.s(2, 1)
    assert not hecke.KLValue.of(t_basis(s1).scale(V)).is_bar_invariant()


@pytest.mark.parametrize("at_w, message", [(False, "valuation bound"), (True, "wrong leading term")])
def test_self_check_bites_on_an_added_low_term(monkeypatch, at_w, message):
    # adding v^l(x) to c_x breaks c_w = v^l(w) at x = w, the valuation bound elsewhere
    w = AffinePerm.from_pair((3, 2, 1), (0, 0, 0))
    value = canonical._canonical_value(w).elt  # the cached object canonical_basis reads
    x = w if at_w else next(x for x in value.terms if x != w)
    monkeypatch.setattr(value, "terms", dict(value.terms))
    value.terms[x] = value.terms[x] + v_power(x.length())
    with pytest.raises(InternalInvariantError, match=message):
        canonical_basis(w)


def test_bounded_caches_stay_at_their_bound(fresh_bar_table):
    # short elements twisted by rho powers have distinct windows and cheap
    # canonical elements, so a sweep past the bound evicts the first ones
    n = 2
    caches = (canonical._canonical_value, hecke._reduced_letters)
    bound = max(cache.cache_info().maxsize for cache in caches)
    sweep = [c.compose(AffinePerm.rho(n, z)) for z in range(-300, 300) for c in coxeter_ball(n, 3)]
    assert len(sweep) > bound
    first = {w: canonical_basis(w).value for w in sweep[:20]}
    for w in sweep[20:]:
        canonical_basis(w)
    for cache in caches:
        info = cache.cache_info()
        assert info.currsize == info.maxsize
    for w, value in first.items():
        assert canonical._canonical_value(w).elt is not value  # evicted, so recomputed
        assert canonical_basis(w).value == value == canonical_value_reference(w, {})


def test_rho_twist_compatibility():
    n = 3
    for w in elements_ball(n, max_length=3, max_height=0):
        b = canonical_basis(w).value
        for z in (-1, 1):
            rho = AffinePerm.rho(n, z)
            twisted = canonical_basis(w.compose(rho)).value
            assert twisted == b * t_basis(rho)
            assert twisted.support() == {x.compose(rho) for x in b.support()}


def test_mu_coefficient():
    n = 2
    e = AffinePerm.identity(n)
    s1 = AffinePerm.s(n, 1)
    # mu(x, w) is the coefficient of v^{l(x)+1} in the T_x coordinate of b_w
    assert canonical_basis(s1).value.coeff(e).coeff(e.length() + 1) == 1
    assert canonical_basis(e).value.coeff(s1).coeff(s1.length() + 1) == 0


def test_length_cap_guard():
    w = AffinePerm(2, (-49, 2))
    assert w.length() == 25
    with pytest.raises(ResourceLimitError):
        canonical_basis(w)


def test_positive_basis_small_table():
    out = positive_canonical_basis(2, 1, 1)
    by_index = {b.index: b.value for b in out}
    n = 2
    e = AffinePerm.identity(n)
    s1 = AffinePerm.s(n, 1)
    rho_inv = AffinePerm.rho(n, -1)
    # every positive w with l <= 1 and degree >= -1, both orders of s1, rho^-1
    assert set(by_index) == {
        e, s1, rho_inv, s1.compose(rho_inv), rho_inv.compose(s1),
    }
    assert by_index[rho_inv] == t_basis(rho_inv)
    for value in by_index.values():
        assert all(x.is_positive() for x in value.support())


def test_positive_basis_supports_are_positive():
    for b in positive_canonical_basis(3, 3, 1):
        assert all(x.is_positive() for x in b.value.support())


def test_quotient_basis_survivors():
    spec = IdealSpec(2, [(1, 0)])
    out = quotient_canonical_basis(spec, 1, 1)
    indices = {w for w, _ in out}
    assert indices == {AffinePerm.identity(2), AffinePerm.s(2, 1)}
    assert all(not img.is_zero for _, img in out)


def test_quotient_basis_of_zero_partition_is_empty():
    assert quotient_canonical_basis(IdealSpec(2, [(0, 0)]), 2, 2) == []


def test_kernel_compatibility():
    spec = IdealSpec(2, [(1, 0)])
    for b in positive_canonical_basis(2, 3, 3):
        if in_ideal(b.index, spec):
            assert all(in_ideal(x, spec) for x in b.value.support())
