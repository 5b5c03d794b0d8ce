"""Acceptance gate: ten criteria, each printing one pass or fail line.

Every check is exact (integer or Laurent arithmetic, tolerance zero) and
carries a wall-clock cap.  A criterion line is printed even when the body
throws, so the console always shows ten verdicts.
"""

import itertools
import random
import time

from affhecke import (
    AffinePerm,
    FlagContext,
    HeckeElt,
    IdealSpec,
    bar_involution,
    bicommutant_check,
    canonical_basis,
    double_coset_span_check,
    generated_span_check,
    im_psi_check,
    in_ideal,
    lift_trials,
    minimal_partitions,
    one,
    quotient_canonical_basis,
    quotient_mul,
    reduce,
    t_basis,
    verify_hecke_iso,
    x_element,
    x_element_inverse,
)
from affhecke.laurent import LaurentPoly, v_power
from affhecke.weyl import RHO_INV, finite_permutations, positive_elements

Q = LaurentPoly({-2: 1})
Q_MINUS_ONE = LaurentPoly({-2: 1, 0: -1})
V2 = LaurentPoly({2: 1})


def _run(capsys, number, name, cap, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print("CRITERION %2d FAIL: %s (%.2fs, cap %ds)"
                  % (number, name, time.perf_counter() - start, cap))
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < cap else "FAIL"
    with capsys.disabled():
        print("CRITERION %2d %s: %s (%.2fs, cap %ds)"
              % (number, verdict, name, elapsed, cap))
    assert elapsed < cap, "runtime %.2fs exceeds the %ds cap" % (elapsed, cap)


# -- 1: presentation audit ------------------------------------------------------

def _audit_presentations(n):
    ident = one(n)
    # rotation presentation on the full alphabet s_0..s_{n-1}, rho
    aff = {i: t_basis(AffinePerm.s(n, i)) for i in range(n)}
    rho = t_basis(AffinePerm.rho(n, 1))
    rho_inv = t_basis(AffinePerm.rho(n, -1))
    assert rho * rho_inv == ident and rho_inv * rho == ident
    for i in range(n):
        assert aff[i] * aff[i] == aff[i].scale(Q_MINUS_ONE) + ident.scale(Q)
        assert rho * aff[i] * rho_inv == aff[(i + 1) % n]
    if n >= 3:
        for i, j in itertools.combinations(range(n), 2):
            if (i - j) % n in (1, n - 1):
                assert aff[i] * aff[j] * aff[i] == aff[j] * aff[i] * aff[j]
            else:
                assert aff[i] * aff[j] == aff[j] * aff[i]
    # Bernstein-style presentation: finite part plus the commuting family
    ts = {i: t_basis(AffinePerm.s(n, i)) for i in range(1, n)}
    xs = {i: x_element(n, i) for i in range(1, n + 1)}
    for i in ts:
        for j in ts:
            if abs(i - j) >= 2:
                assert ts[i] * ts[j] == ts[j] * ts[i]
    for i in range(1, n - 1):
        assert ts[i] * ts[i + 1] * ts[i] == ts[i + 1] * ts[i] * ts[i + 1]
    for i in xs:
        inv = x_element_inverse(n, i)
        assert xs[i] * inv == ident and inv * xs[i] == ident
    for i, j in itertools.combinations(range(1, n + 1), 2):
        assert xs[i] * xs[j] == xs[j] * xs[i]
    for i in xs:
        for j in ts:
            if i not in (j, j + 1):
                assert xs[i] * ts[j] == ts[j] * xs[i]
    for j in ts:
        assert ts[j] * xs[j + 1] * ts[j] == xs[j].scale(V2)


def test_criterion_01_presentation_audit(capsys):
    def body():
        for n in (2, 3, 4):
            _audit_presentations(n)
    _run(capsys, 1, "presentation audit for ranks 2, 3, 4", 5, body)


# -- 2: geometric ground truth ---------------------------------------------------

def test_criterion_02_orbit_algebra_matches(capsys):
    def body():
        for n, q in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            report = verify_hecke_iso(n, q)
            assert report.ok and report.mismatches == [], report.to_json()
    _run(capsys, 2, "orbit convolution matches the generic algebra", 60, body)


# -- 3: mutual centralizers when the chain is long enough -------------------------

def test_criterion_03_bicommutant_bijective(capsys):
    def body():
        for n, d, q in [(2, 2, 2), (2, 3, 2), (2, 2, 3)]:
            report = bicommutant_check(n, d, q)
            assert report.ok, report.to_json()
            dims = report.dims
            assert dims["rank of left action"] == dims["dim left algebra"]
            assert dims["dim left algebra"] == dims["centralizer of right action"]
            assert dims["rank of right action"] == dims["dim right algebra"]
            assert dims["dim right algebra"] == dims["centralizer of left action"]
            assert dims["kernel of right action"] == 0
    _run(capsys, 3, "bicommutant bijectivity at d >= n", 120, body)


# -- 4: surjectivity with kernel when the chain is short --------------------------

def test_criterion_04_truncated_surjectivity(capsys):
    def body():
        report = bicommutant_check(3, 2, 2)
        assert report.ok, report.to_json()
        dims = report.dims
        assert dims["rank of right action"] == dims["centralizer of left action"]
        assert dims["kernel of right action"] > 0
    _run(capsys, 4, "surjection onto the centralizer at d < n, kernel recorded",
         180, body)


# -- 5: lifting compatible families ------------------------------------------------

def test_criterion_05_family_lifting(capsys):
    def body():
        report = lift_trials(3, 2, 2, trials=50, seed=42)
        assert report.ok, report.to_json()
        assert report.dims["trials"] == 50
        eigen = im_psi_check(3, 2, 2)
        assert eigen.ok, eigen.to_json()
        components = FlagContext(3, 2, 2).valid_components()
        for forgotten in components:
            key = "eigenspace [%s]" % ",".join(map(str, forgotten))
            assert key in eigen.dims
    _run(capsys, 5, "50 seeded lift round-trips plus the eigenspace description",
         120, body)


# -- 6: positivity of the subalgebra ------------------------------------------------

def test_criterion_06_positivity(capsys):
    def body():
        n = 3
        rng = random.Random(2026)
        rho_inv = t_basis(AffinePerm.rho(n, -1))
        gens = [t_basis(AffinePerm.s(n, 1)), t_basis(AffinePerm.s(n, 2)), rho_inv]
        for _ in range(200):
            elt = one(n)
            for _ in range(rng.randint(0, 8)):
                elt = elt * rng.choice(gens)
            assert all(w.is_positive() for w in elt.support())
        for w in positive_elements(n, 4, -3):
            word = w.positive_reduced_word()
            assert word.to_perm() == w
            cox = [a for a in word.letters if isinstance(a, int)]
            rest = [a for a in word.letters if not isinstance(a, int)]
            assert len(cox) == w.length()
            assert all(1 <= a <= n - 1 for a in cox)
            assert rest == [RHO_INV] * (-w.degree())
    _run(capsys, 6, "positive support for 200 random words, exact letter counts",
         30, body)


# -- 7: ideals as two-sided spans ----------------------------------------------------

def test_criterion_07_ideal_spans(capsys):
    def body():
        for lam in [(1, 0), (1, 1), (2, 0)]:
            assert generated_span_check(lam, 3), lam
        for nu in itertools.product(range(-2, 3), repeat=3):
            if not (nu[0] >= nu[1] >= nu[2]):
                continue
            w = AffinePerm.from_pair((1, 2, 3), nu)
            assert double_coset_span_check(w), nu
    _run(capsys, 7, "ideal slices match two-sided spans, double-coset lemma", 120, body)


# -- 8: canonical bases ---------------------------------------------------------------

def test_criterion_08_canonical_bases(capsys):
    def body():
        n = 3
        for w in positive_elements(n, 4, -1):
            value = canonical_basis(w).value
            assert bar_involution(value) == value
            assert value.coeff(w) == v_power(w.length())
            for x, cx in value.terms.items():
                assert x.is_positive()
                if x == w:
                    continue
                assert x.degree() == w.degree()
                assert x.length() < w.length() and x.bruhat_leq(w)
                assert cx.valuation() >= x.length() + 1
                assert all(coef > 0 for _, coef in cx.items())
        for i in (0, 1, 2):
            si = AffinePerm.s(n, i)
            assert canonical_basis(si).value == (t_basis(si) + one(n)).scale(v_power(1))
        w0 = AffinePerm(n, (3, 2, 1))
        total = HeckeElt(n)
        for sigma in finite_permutations(n):
            total = total + t_basis(sigma)
        assert canonical_basis(w0).value == total.scale(v_power(3))
    _run(capsys, 8, "canonical basis invariants and the two frozen elements", 60, body)


# -- 9: quotient basis theorem -----------------------------------------------------------

def test_criterion_09_quotient_basis(capsys):
    def body():
        spec = IdealSpec(2, [(1, 0)])
        pairs = quotient_canonical_basis(spec, 3, 3)
        survivors = {w for w, _ in pairs}
        assert survivors == {
            w for w in positive_elements(2, 3, -3) if not in_ideal(w, spec)
        }
        images = {}
        for w, image in pairs:
            assert image.rep.coeff(w) == v_power(w.length())   # unit leading term
            assert set(image.rep.support()) <= survivors
            images[w] = image.rep
        # independence comes with the distinct unit leading terms; spanning by
        # eliminating pivots from the longest index down
        order = sorted(images, key=lambda u: u.length(), reverse=True)
        for target in survivors:
            expr = t_basis(target)
            for w in order:
                c = expr.coeff(w)
                if c:
                    expr = expr - images[w].scale(c * v_power(-w.length()))
            assert expr.is_zero
        # multiplication table on the surviving canonical images is the
        # rank-one finite table: unit row/column and b_s^2 = (v + v^-1) b_s
        s1 = AffinePerm.s(2, 1)
        b_e = canonical_basis(AffinePerm.identity(2)).value
        b_s = canonical_basis(s1).value
        gate = LaurentPoly({1: 1, -1: 1})
        assert b_s * b_s == b_s.scale(gate)                    # generic identity
        ze, zs = reduce(b_e, spec), reduce(b_s, spec)
        assert quotient_mul(ze, ze) == ze
        assert quotient_mul(ze, zs) == zs == quotient_mul(zs, ze)
        assert quotient_mul(zs, zs) == reduce(b_s.scale(gate), spec)
    _run(capsys, 9, "quotient canonical basis matches the finite algebra", 30, body)


# -- 10: antichain normalization --------------------------------------------------------

def test_criterion_10_minimal_partitions(capsys):
    def body():
        rng = random.Random(77)
        for _ in range(500):
            n = rng.randint(1, 4)
            parts = [
                tuple(sorted((rng.randint(0, 5) for _ in range(n)), reverse=True))
                for _ in range(rng.randint(1, 6))
            ]
            spec = minimal_partitions(parts)
            assert minimal_partitions(spec.partitions) == spec   # idempotent
            outs = spec.partitions
            assert outs == tuple(sorted(outs))
            assert set(outs) <= set(parts)
            for p, q in itertools.permutations(outs, 2):
                assert not all(a <= b for a, b in zip(p, q))     # antichain
            for p in parts:
                assert any(all(a <= b for a, b in zip(q, p)) for q in outs)
    _run(capsys, 10, "antichain normalization on 500 random inputs", 5, body)
