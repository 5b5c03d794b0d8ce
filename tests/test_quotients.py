"""Positive cone membership, two-sided ideals, quotients, double cosets."""

import itertools
import random

import pytest

from affhecke import (
    AffinePerm,
    HeckeElt,
    IdealSpec,
    LaurentPoly,
    double_coset_span_check,
    generated_span_check,
    ideal_generator,
    in_ideal,
    in_positive,
    minimal_partitions,
    one,
    quotient_mul,
    reduce,
    t_basis,
    x_element,
    x_monomial,
)
from affhecke.errors import (
    NonDominantError,
    NotPositiveError,
    ResourceLimitError,
    SpecMismatchError,
)
from affhecke.quotients import ideal_slice
from affhecke.weyl import RHO_INV, positive_elements

SPEC10 = IdealSpec(2, [(1, 0)])


def random_positive(n, rng, terms=2):
    pool = positive_elements(n, max_length=3, min_degree=-2)
    out = HeckeElt(n)
    for _ in range(terms):
        coeff = LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
        out = out + t_basis(rng.choice(pool)).scale(coeff)
    return out


def test_in_positive_examples():
    assert in_positive(t_basis(AffinePerm.s(2, 1)))
    assert not in_positive(t_basis(AffinePerm.rho(2)))
    assert in_positive(x_element(2, 1) * x_element(2, 2))


def test_positivity_closure_under_generator_products():
    n = 3
    rng = random.Random(2)
    gens = [t_basis(AffinePerm.s(n, i)) for i in (1, 2)]
    gens.append(t_basis(AffinePerm.rho(n, -1)))
    for _ in range(40):
        prod = one(n)
        for _ in range(rng.randint(1, 6)):
            prod = prod * rng.choice(gens)
        assert in_positive(prod)


def test_in_ideal_examples():
    assert in_ideal(AffinePerm.translation((-1, 0)), SPEC10)
    assert not in_ideal(AffinePerm.s(2, 1), SPEC10)
    assert in_ideal(AffinePerm.from_pair((1, 2), (0, -1)), SPEC10)
    with pytest.raises(NotPositiveError):
        in_ideal(AffinePerm.rho(2), SPEC10)


def test_ideal_spec_normalizes_to_an_antichain():
    assert IdealSpec(2, [(1, 0), (2, 0)]) == IdealSpec(2, [(1, 0)])
    assert minimal_partitions([(2, 1), (1, 1), (3, 0)]).partitions == ((1, 1), (3, 0))
    assert minimal_partitions([(1, 0), (0, 0)]).partitions == ((0, 0),)
    assert minimal_partitions([(2, 1)]).partitions == ((2, 1),)
    with pytest.raises(NonDominantError):
        minimal_partitions([(0, 1)])


def test_minimal_partitions_idempotent_on_random_inputs():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.choice((2, 3))
        parts = [tuple(sorted((rng.randint(0, 3) for _ in range(n)), reverse=True))
                 for _ in range(rng.randint(1, 5))]
        spec = minimal_partitions(parts)
        # every input dominates a kept minimal element; kept ones are incomparable
        for p in parts:
            assert any(all(a >= b for a, b in zip(p, kept)) for kept in spec.partitions)
        for a in spec.partitions:
            for b in spec.partitions:
                if a != b:
                    assert not all(x >= y for x, y in zip(a, b))
        assert minimal_partitions(spec.partitions) == spec


def test_ideal_generator_examples():
    n = 2
    assert ideal_generator((0, 0)) == one(n)
    gen = ideal_generator((1, 0))
    assert gen == x_element(n, 1)
    assert gen == t_basis(AffinePerm(2, (-1, 2))).scale(LaurentPoly({-1: 1}))
    gen11 = ideal_generator((1, 1))
    terms = gen11.sorted_terms()
    assert len(terms) == 1 and terms[0][0] == AffinePerm.translation((-1, -1))
    with pytest.raises(NonDominantError):
        ideal_generator((0, 1))


def test_generator_support_lies_in_its_ideal():
    for lam in ((1, 0), (1, 1), (2, 0), (2, 1)):
        spec = IdealSpec(2, [lam])
        assert all(in_ideal(w, spec) for w in ideal_generator(lam).support())


def test_two_sided_absorption():
    n = 2
    letters = [t_basis(AffinePerm.s(n, 1)), t_basis(AffinePerm.rho(n, -1))]
    for w in ideal_slice(SPEC10, max_length=5, min_degree=-4):
        tw = t_basis(w)
        for g in letters:
            for prod in (g * tw, tw * g):
                assert all(in_ideal(x, SPEC10) for x in prod.support())


@pytest.mark.parametrize("spec, max_length, min_degree", [
    (SPEC10, 5, -4), (IdealSpec(2, [(1, 1)]), 4, -3),
    (IdealSpec(3, [(2, 0, 0), (1, 1, 0)]), 3, -4), (IdealSpec(3, [(1, 0, 0)]), 4, 1),
])
def test_ideal_slice_is_the_enumerated_slice(spec, max_length, min_degree):
    # every (sigma, -mu) with |mu| <= depth, kept when short enough and in the ideal
    n, depth = spec.n, -min_degree
    enumerated = set()
    for sigma in itertools.permutations(range(1, n + 1)):
        for mu in itertools.product(range(depth + 1), repeat=n):
            w = AffinePerm.from_pair(sigma, tuple(-m for m in mu))
            if sum(mu) <= depth and w.length() <= max_length and in_ideal(w, spec):
                enumerated.add(w)
    got = ideal_slice(spec, max_length, min_degree)
    assert len(got) == len(enumerated) and set(got) == enumerated


def test_ideal_slice_refuses_too_many_candidates():
    with pytest.raises(ResourceLimitError):
        ideal_slice(IdealSpec(4, [(1, 0, 0, 0)]), 2, -20)


def test_absorption_of_random_positive_elements():
    rng = random.Random(17)
    slice_elts = ideal_slice(SPEC10, max_length=4, min_degree=-3)
    for _ in range(25):
        a = random_positive(2, rng)
        f = t_basis(rng.choice(slice_elts))
        for prod in (a * f, f * a):
            assert all(in_ideal(x, SPEC10) for x in prod.support())


@pytest.mark.parametrize("lam", [(1, 0), (1, 1), (2, 0)])
def test_generated_span_check(lam):
    assert generated_span_check(lam, max_length=3)


def test_generated_span_check_trivial_ideal():
    assert generated_span_check((0, 0), max_length=2)


def test_double_coset_span_small_cases():
    # dominant translations: the two-sided finite-group orbit fills the
    # whole set of translations with rearranged coordinates
    for nu in ((1, 0, 0), (2, 1, -1), (0, 0, -2)):
        w = AffinePerm.from_pair((1, 2, 3), nu)
        assert double_coset_span_check(w)


def test_double_coset_span_random_elements():
    rng = random.Random(23)
    for _ in range(4):
        sigma = [1, 2, 3]
        rng.shuffle(sigma)
        lam = tuple(rng.randint(-2, 2) for _ in range(3))
        assert double_coset_span_check(AffinePerm.from_pair(sigma, lam))


# -- quotient algebra ----------------------------------------------------------

def test_reduce_examples():
    s1 = t_basis(AffinePerm.s(2, 1))
    assert reduce(s1, SPEC10).rep == s1
    assert reduce(x_element(2, 1), SPEC10).is_zero
    assert reduce(HeckeElt(2), SPEC10).is_zero
    with pytest.raises(NotPositiveError):
        reduce(t_basis(AffinePerm.rho(2)), SPEC10)


def test_quotient_of_quadratic_relation():
    zs1 = reduce(t_basis(AffinePerm.s(2, 1)), SPEC10)
    unit = reduce(one(2), SPEC10)
    q = LaurentPoly({-2: 1})
    qm1 = LaurentPoly({-2: 1, 0: -1})
    square = quotient_mul(zs1, zs1)
    assert square.rep == zs1.rep.scale(qm1) + unit.rep.scale(q)
    assert quotient_mul(unit, zs1) == zs1
    assert quotient_mul(zs1, unit) == zs1


def test_ideal_images_vanish_in_quotient():
    rng = random.Random(31)
    zx = reduce(x_element(2, 1), SPEC10)
    for _ in range(10):
        za = reduce(random_positive(2, rng), SPEC10)
        assert quotient_mul(zx, za).is_zero
        assert quotient_mul(za, zx).is_zero


def test_reduction_is_multiplicative():
    rng = random.Random(41)
    for _ in range(30):
        a = random_positive(2, rng)
        b = random_positive(2, rng)
        assert reduce(a * b, SPEC10) == quotient_mul(reduce(a, SPEC10), reduce(b, SPEC10))


@pytest.mark.parametrize("spec", [SPEC10, IdealSpec(2, [(0, 0)])])
def test_a_scalar_operand_is_the_class_of_c_times_one(spec):
    # c stands for the class of c*T_e, and is charged the same bits
    rng = random.Random(43)
    for _ in range(10):
        za = reduce(random_positive(2, rng), spec)
        c = LaurentPoly({rng.randrange(-3, 4): rng.randrange(-5, 6) for _ in range(2)})
        zc = reduce(one(2).scale(c), spec)
        for left, right, as_class in ((c, za, (zc, za)), (za, c, (za, zc))):
            bits, want = [], []
            got = quotient_mul(left, right, lambda steps, b, dry_run: bits.append(b))
            expected = quotient_mul(*as_class, lambda steps, b, dry_run: want.append(b))
            assert got == expected
            assert bits == want


def test_quotient_mul_requires_matching_spec():
    other = IdealSpec(2, [(2, 0)])
    with pytest.raises(SpecMismatchError):
        quotient_mul(reduce(one(2), SPEC10), reduce(one(2), other))


def test_zero_partition_kills_everything():
    spec = IdealSpec(2, [(0, 0)])
    assert reduce(one(2), spec).is_zero
    assert reduce(t_basis(AffinePerm.s(2, 1)), spec).is_zero
