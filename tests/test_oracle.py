"""Convolution algebras over small finite fields against the generic algebra."""

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from affhecke import (
    AffinePerm,
    OrbitFunction,
    Report,
    bicommutant_check,
    im_psi_check,
    lift_family,
    lift_trials,
    oracle,
    t_basis,
    verify_hecke_iso,
)
from affhecke.errors import DomainMismatchError, IncompatibleFamilyError
from affhecke.flags import FlagContext
from affhecke.oracle import (
    basis_labels,
    fiber_indicator,
    perm_label,
    psi,
    theta,
    theta_between,
)
from affhecke.weyl import finite_permutations
from oracle_reference import dense_commutator_entries, indicator


def _random_function(ctx, left, right, rng):
    values = {lab: Fraction(rng.randint(-5, 5))
              for lab in basis_labels(ctx, left, right) if rng.random() < 0.7}
    return OrbitFunction(ctx, left, right, values)


def test_quadratic_convolution_frozen():
    ctx = FlagContext(2, 2, 1)
    e = AffinePerm.identity(2)
    s = AffinePerm.s(2, 1)
    ind_s = indicator(ctx, "X", "X", perm_label(ctx, s))
    square = ind_s.convolve(ind_s)
    assert square.value(perm_label(ctx, e)) == 2
    assert square.value(perm_label(ctx, s)) == 1


def _diagonal_unit(ctx, space):
    labels = {ctx.pair_label(p, p) for p in ctx.space_points(space)}
    return OrbitFunction(ctx, space, space, {lab: Fraction(1) for lab in labels})


def test_diagonal_indicator_is_the_unit():
    ctx = FlagContext(2, 2, 2)
    rng = random.Random(1)
    for left in ("X", "Y"):
        f = _random_function(ctx, left, "X", rng)
        assert _diagonal_unit(ctx, left).convolve(f) == f
        assert f.convolve(_diagonal_unit(ctx, "X")) == f
        assert f - f == f.scale(0) and hash(f - f.scale(-1)) == hash(f.scale(2))


def test_convolution_is_associative():
    rng = random.Random(7)
    ctx = FlagContext(2, 2, 2)
    for _ in range(8):
        a = _random_function(ctx, "Y", "Y", rng)
        c = _random_function(ctx, "Y", "X", rng)
        b = _random_function(ctx, "X", "X", rng)
        assert a.convolve(c).convolve(b) == a.convolve(c.convolve(b))


def test_convolution_requires_matching_middle():
    ctx = FlagContext(2, 2, 2)
    rng = random.Random(3)
    a = _random_function(ctx, "Y", "Y", rng)
    c = _random_function(ctx, "Y", "X", rng)
    with pytest.raises(DomainMismatchError):
        c.convolve(a)


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_hecke_structure_constants(n, q):
    report = verify_hecke_iso(n, q)
    assert report.ok
    assert report.mismatches == []


def test_hecke_structure_constants_rank_4():
    cap = 60
    start = time.perf_counter()
    report = verify_hecke_iso(4, 2)
    elapsed = time.perf_counter() - start
    assert report.ok, report.to_json()
    assert report.dims == {"flags": 315, "orbits": 24, "group order": 24}
    assert elapsed < cap, "runtime %.2fs exceeds the %ds cap" % (elapsed, cap)


def test_hecke_iso_covers_all_orbits():
    ctx = FlagContext(3, 2, 1)
    labels = set(basis_labels(ctx, "X", "X"))
    assert {perm_label(ctx, w) for w in finite_permutations(3)} == labels


def test_structure_constants_match_generic_products():
    n, q = 3, 2
    ctx = FlagContext(n, q, 1)
    rng = random.Random(19)
    perms = list(finite_permutations(n))
    for _ in range(10):
        u, w = rng.choice(perms), rng.choice(perms)
        conv = indicator(ctx, "X", "X", perm_label(ctx, u)).convolve(
            indicator(ctx, "X", "X", perm_label(ctx, w)))
        generic = t_basis(u) * t_basis(w)
        for x in perms:
            assert conv.value(perm_label(ctx, x)) == generic.coeff(x).specialize_q(q)


# -- forgetting maps ----------------------------------------------------------------

def test_theta_with_nothing_forgotten_is_identity():
    ctx = FlagContext(3, 2, 3)
    rng = random.Random(11)
    f = _random_function(ctx, "X", "X", rng)
    assert theta(f, ()) == f


def test_theta_composes_through_intermediate_components():
    ctx = FlagContext(3, 2, 2)
    rng = random.Random(13)
    for small in ((1,), (2,)):
        for _ in range(4):
            f = _random_function(ctx, "X", "X", rng)
            assert theta_between(theta(f, small), small, (1, 2)) == theta(f, (1, 2))


def test_theta_commutes_with_the_other_side_action():
    # forgetting happens on the right factor, so left convolution passes through
    ctx = FlagContext(3, 2, 2)
    rng = random.Random(29)
    for _ in range(4):
        f = _random_function(ctx, "X", "X", rng)
        b = _random_function(ctx, "X", "X", rng)
        for forgotten in ctx.valid_components():
            assert theta(b.convolve(f), forgotten) == b.convolve(theta(f, forgotten))


def test_theta_of_diagonal_counts_fibers():
    ctx = FlagContext(3, 2, 2)
    e = AffinePerm.identity(3)
    diag = indicator(ctx, "X", "X", perm_label(ctx, e))
    for forgotten in ctx.valid_components():
        image = theta(diag, forgotten)
        for part in ctx.space_points(("YI", forgotten)):
            column = sum(image.value(ctx.pair_label(x, part))
                         for x in ctx.space_points("X"))
            assert column == ctx.fiber_size(forgotten)


def test_pullbacks_are_eigenfunctions_of_the_fiber_indicator():
    ctx = FlagContext(3, 2, 2)
    rng = random.Random(37)
    for forgotten in ctx.valid_components():
        z = fiber_indicator(ctx, forgotten)
        m = ctx.fiber_size(forgotten)
        for _ in range(3):
            g = _random_function(ctx, ("YI", (1,)), ("YI", forgotten), rng)
            h = psi(g, forgotten)
            assert h.convolve(z) == h.scale(Fraction(m))


@pytest.mark.parametrize("n,d,q", [(2, 2, 2), (2, 3, 2)])
def test_im_psi_reports(n, d, q):
    report = im_psi_check(n, d, q)
    assert report.ok, report.to_json()


def test_rank_one_pullback_report_is_unchanged():
    # the only component at n = 1 forgets no letter, and its group is {e}
    report = im_psi_check(1, 1, 2)
    assert json.dumps(report.to_json(), sort_keys=True) == (
        '{"claim": "pullback images cut out by one eigenvalue equation (n=1, d=1, q=2)", '
        '"dims": {"dim mixed space": 1, "eigenspace [none]": 1, "partial orbits [none]": 1}, '
        '"mismatches": [], "status": "pass"}'
    )


def test_bicommutant_square_case():
    report = bicommutant_check(2, 2, 2)
    assert report.ok
    dims = report.dims
    assert dims["rank of left action"] == dims["dim left algebra"]
    assert dims["dim left algebra"] == dims["centralizer of right action"]
    assert dims["rank of right action"] == dims["dim right algebra"]
    assert dims["dim right algebra"] == dims["centralizer of left action"]


def test_bicommutant_rank_3_square_case():
    cap = 60
    start = time.perf_counter()
    report = bicommutant_check(3, 3, 2)
    elapsed = time.perf_counter() - start
    assert report.ok, report.to_json()
    assert report.dims == {
        "dim left algebra": 165,
        "dim right algebra": 6,
        "dim mixed space": 27,
        "rank of left action": 165,
        "rank of right action": 6,
        "centralizer of left action": 6,
        "centralizer of right action": 165,
        "kernel of right action": 0,
    }
    assert elapsed < cap, "runtime %.2fs exceeds the %ds cap" % (elapsed, cap)


def test_bicommutant_rank_3_four_steps():
    # past the cap as dense commutator systems; dim left = C(4^2 + 3 - 1, 3)
    assert dense_commutator_entries(3, 4) > oracle.MAX_TABLE_VISITS
    report = bicommutant_check(3, 4, 2)
    assert report.ok, report.to_json()
    assert report.dims["dim left algebra"] == 816 == math.comb(18, 3)
    assert report.dims["dim right algebra"] == 6
    assert report.dims["dim mixed space"] == 4**3
    assert report.dims["centralizer of left action"] == 6
    assert report.dims["centralizer of right action"] == 816


def test_bicommutant_truncated_case_has_kernel():
    report = bicommutant_check(3, 2, 2)
    assert report.ok
    assert report.dims["kernel of right action"] > 0
    assert report.dims["rank of right action"] == report.dims["centralizer of left action"]


# -- lifting -------------------------------------------------------------------------

def test_lift_round_trip_seeded():
    report = lift_trials(3, 2, 2, trials=5, seed=99)
    assert report.ok, report.to_json()


@pytest.mark.parametrize("trials", [0, -3])
def test_lift_trials_below_one_raise_before_any_context(monkeypatch, trials):
    def reached(n, q, d):
        raise AssertionError("a context was looked up")

    monkeypatch.setattr(oracle, "shared_context", reached)
    with pytest.raises(ValueError, match="at least one"):
        lift_trials(3, 2, 2, trials, 0)


def test_lift_of_pushforward_family():
    ctx = FlagContext(3, 2, 2)
    rng = random.Random(43)
    g = _random_function(ctx, "X", "X", rng)
    family = {I: theta(g, I) for I in ctx.valid_components()}
    lifted = lift_family(ctx, family)
    for I in ctx.valid_components():
        assert theta(lifted, I) == family[I]


def test_lift_of_zero_family_is_zero():
    ctx = FlagContext(3, 2, 2)
    zero = {I: OrbitFunction(ctx, "X", ("YI", I), {})
            for I in ctx.valid_components()}
    lifted = lift_family(ctx, zero)
    assert lifted == OrbitFunction(ctx, "X", "X", {})


def test_incompatible_family_is_refused():
    ctx = FlagContext(3, 2, 2)
    rng = random.Random(47)
    g = _random_function(ctx, "X", "X", rng)
    family = {I: theta(g, I) for I in ctx.valid_components()}
    label = basis_labels(ctx, "X", ("YI", (1, 2)))[0]
    family[(1, 2)] = family[(1, 2)] + indicator(ctx, "X", ("YI", (1, 2)), label)
    with pytest.raises(IncompatibleFamilyError):
        lift_family(ctx, family)


def test_report_json_schema():
    blob = verify_hecke_iso(2, 2).to_json()
    assert set(blob) == {"claim", "status", "dims", "mismatches"}
    assert blob["status"] in ("pass", "fail")


def test_report_is_a_plain_value():
    a = Report(claim="c", status="pass", dims={"k": 1}, mismatches=[])
    assert a == Report(claim="c", status="pass", dims={"k": 1}, mismatches=[])
    assert a != Report(claim="c", status="fail", dims={"k": 1}, mismatches=[{}])
    assert a.__eq__(a.to_json()) is NotImplemented
    assert repr(a) == "Report(claim='c', status='pass', dims={'k': 1}, mismatches=[])"
    with pytest.raises(TypeError):
        hash(a)


def _loaded_by_import(names):
    """Which of ``names`` a fresh interpreter has in sys.modules after ``import affhecke``."""
    src = str(Path(oracle.__file__).parents[1])
    code = "import sys, affhecke; print(sorted(set(%r) & set(sys.modules)))" % (sorted(names),)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_leaves_the_introspection_modules_unloaded():
    assert _loaded_by_import({"dataclasses", "inspect"}) == "[]\n"


def test_import_leaves_fractions_decimal_and_array_unloaded():
    # Fraction is imported by specialize_q and lift_family, array by label_table
    assert _loaded_by_import({"fractions", "decimal", "array"}) == "[]\n"
