"""The oracle's shared contexts: one per (n, q, d) per process, bounded,
sharing the tables of complete flags within one (n, q).

Reports are byte-identical from a cold and a warm cache.  Every audit of a
table still fails on every call while it is tripped, since a failed build
stores nothing, and every per-call check of the four entry points still
runs against a context whose tables are already built.
"""

import json
import weakref

import pytest

from affhecke import linalg, oracle, weyl
from affhecke.errors import IncompatibleFamilyError, InternalInvariantError, ResourceLimitError
from affhecke.flags import FlagContext, shared_context
from affhecke.oracle import OrbitFunction, basis_labels, lift_family, theta

pytestmark = pytest.mark.usefixtures("fresh_shared_contexts")

SETTINGS = (
    [("verify_hecke_iso", (n, q)) for n in (2, 3) for q in (2, 3)]
    + [("bicommutant_check", s) for s in ((2, 2, 2), (2, 3, 2), (2, 4, 2), (3, 1, 2), (3, 2, 2))]
    + [("im_psi_check", s) for s in ((2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3), (3, 3, 2))]
    + [("lift_trials", s + (5, 1)) for s in ((3, 1, 2), (3, 2, 2), (3, 3, 2), (3, 2, 3), (4, 1, 2), (4, 2, 2))]
    + [("lift_trials", (4, 4, 2, 1, 0))]  # no structure-constant table, so no table guard
)


def _report(check, args) -> str:
    return json.dumps(getattr(oracle, check)(*args).to_json(), sort_keys=True)


@pytest.mark.parametrize("check,args", SETTINGS)
def test_cold_and_warm_reports_are_byte_identical(check, args):
    cold = _report(check, args)
    hits = shared_context.cache_info().hits
    assert _report(check, args) == cold
    assert shared_context.cache_info().hits == hits + 1
    assert '"status": "pass"' in cold


def test_one_context_per_setting_and_a_fixed_bound():
    assert shared_context(3, 2, 2) is shared_context(3, 2, 2)
    assert shared_context(3, 2, 2) is not FlagContext(3, 2, 2)
    maxsize = shared_context.cache_info().maxsize
    assert maxsize == 8
    first = shared_context(1, 2, 1)
    for d in range(1, maxsize + 1):
        shared_context(2, 2 + d % 2, (d + 1) // 2)
    assert shared_context.cache_info().currsize == maxsize
    assert shared_context(1, 2, 1) is not first  # the oldest was dropped


def test_settings_of_one_field_share_the_complete_flag_tables():
    a, b = shared_context(3, 2, 2), shared_context(3, 2, 1)
    assert a.label_table("X", "X") is b.label_table("X", "X")
    assert a.intersections() is b.intersections()
    assert oracle.perm_label(a, weyl.AffinePerm.s(3, 1)) is oracle.perm_label(b, weyl.AffinePerm.s(3, 1))
    assert a.label_table("Y", "X") is not b.label_table("Y", "X")
    assert shared_context(3, 3, 2).label_table("X", "X") is not a.label_table("X", "X")
    assert FlagContext(3, 2, 2).label_table("X", "X") is not a.label_table("X", "X")
    store = weakref.ref(a._field)
    del a, b
    shared_context.cache_clear()
    assert store() is None


def test_reports_do_not_depend_on_which_setting_built_the_shared_tables():
    alone = [_report("bicommutant_check", (3, 1, 2)), _report("lift_trials", (3, 1, 2, 2, 0))]
    shared_context.cache_clear()
    _report("lift_trials", (3, 3, 2, 1, 0))
    assert [_report("bicommutant_check", (3, 1, 2)), _report("lift_trials", (3, 1, 2, 2, 0))] == alone


def test_entry_points_share_one_context(monkeypatch):
    built = []
    init = FlagContext.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(FlagContext, "__init__", counted)
    for _ in range(2):
        oracle.bicommutant_check(2, 2, 2)
        oracle.im_psi_check(2, 2, 2)
        oracle.lift_trials(2, 2, 2, 2, 0)
    assert built == [(2, 2, 2)]


# -- audits of the tables: tripped, they fail on every call ----------------------


@pytest.mark.parametrize("check,args", [
    ("verify_hecke_iso", (3, 2)),
    ("bicommutant_check", (3, 2, 2)),
    ("bicommutant_check", (2, 4, 2)),
    ("im_psi_check", (3, 2, 2)),
    ("im_psi_check", (3, 3, 2)),
    ("lift_trials", (3, 2, 2, 2, 1)),
    ("lift_trials", (3, 3, 2, 2, 1)),
])
def test_the_guard_names_every_table_a_check_builds(monkeypatch, check, args):
    # only structure-constant tables visit middle points; lift_trials
    # builds none, so it calls no guard and declares none
    declared, built = [], set()
    guard, constants = oracle._context, FlagContext.structure_constants

    def recording_guard(n, q, d, triples):
        declared.extend(triples)
        return guard(n, q, d, triples)

    def recording_constants(self, left, mid, right):
        built.add(left + mid + right)  # a component here would be a TypeError
        return constants(self, left, mid, right)

    monkeypatch.setattr(oracle, "_context", recording_guard)
    monkeypatch.setattr(FlagContext, "structure_constants", recording_constants)
    getattr(oracle, check)(*args)
    assert built == set(declared)
    assert bool(built) == (check != "lift_trials")


class _Admitted(Exception):
    pass


@pytest.mark.parametrize("check,admitted,refused", [
    ("verify_hecke_iso", (4, 2), (4, 3)),
    ("bicommutant_check", (4, 3, 2), (4, 4, 2)),
    ("im_psi_check", (4, 3, 2), (4, 4, 2)),
    ("lift_trials", (4, 4, 2, 1, 0), ()),  # no table guard: nothing refused
])
def test_the_guard_admits_rank_4_up_to_3_steps_over_f2(monkeypatch, check, admitted, refused):
    # the largest table there, Y x Y x X, visits 513 * 513 * 315 middle points
    assert 513 * 513 * 315 < oracle.MAX_TABLE_VISITS

    def reached(n, q, d):
        raise _Admitted

    monkeypatch.setattr(oracle, "shared_context", reached)
    with pytest.raises(_Admitted):
        getattr(oracle, check)(*admitted)
    if refused:
        with pytest.raises(ResourceLimitError, match="middle points"):
            getattr(oracle, check)(*refused)


def test_structure_constant_audit_fails_on_every_call(monkeypatch):
    # two pairs on (chain, complete flag) with different labels swap labels,
    # so their middle-point counts no longer match the rest of either label
    exact = FlagContext.label_table

    def swapped(self, key_left, key_right):
        labels, reps, index = exact(self, key_left, key_right)
        if (key_left, key_right) != ("Y", "X"):
            return labels, reps, index
        index = [list(row) for row in index]
        row = next(row for row in index if len(set(row)) > 1)
        j = next(j for j, k in enumerate(row) if k != row[0])
        row[0], row[j] = row[j], row[0]
        return labels, reps, index

    monkeypatch.setattr(FlagContext, "label_table", swapped)
    for _ in range(2):
        with pytest.raises(InternalInvariantError, match="structure constants"):
            oracle.bicommutant_check(2, 2, 2)


def test_forgetting_map_audit_fails_on_every_call(monkeypatch):
    # labels without their first row (see test_oracle_reference.RowDropped)
    # cannot tell whether the first steps of two flags agree
    exact = FlagContext.label_table

    def coarse(self, key_left, key_right):
        labels, reps, index = exact(self, key_left, key_right)
        merged = sorted({lab[1:] for lab in labels})
        pos = [merged.index(lab[1:]) for lab in labels]
        return tuple(merged), {}, [[pos[k] for k in row] for row in index]

    monkeypatch.setattr(FlagContext, "label_table", coarse)
    for _ in range(2):
        with pytest.raises(InternalInvariantError, match="forgetting map"):
            oracle.lift_trials(2, 2, 2, 1, 0)
        with pytest.raises(InternalInvariantError, match="forgetting map"):
            oracle.im_psi_check(2, 2, 2)


# -- per-call checks: they run against a warm context ----------------------------


def _kinds(report) -> set:
    return {bad["kind"] for bad in report.mismatches}


def test_commute_check_runs_on_a_warm_context(monkeypatch):
    assert oracle.bicommutant_check(2, 2, 2).ok
    monkeypatch.setattr(linalg, "mat_mul", lambda a, b: a)
    assert "actions do not commute" in _kinds(oracle.bicommutant_check(2, 2, 2))


def test_ranks_run_on_a_warm_context(monkeypatch):
    assert oracle.bicommutant_check(2, 2, 2).ok
    assert oracle.im_psi_check(2, 2, 2).ok
    rank = linalg.int_rank
    monkeypatch.setattr(linalg, "int_rank", lambda rows: rank(rows) - 1)
    assert "left action is not the full centralizer" in _kinds(oracle.bicommutant_check(2, 2, 2))
    assert "pullback image is not the eigenspace" in _kinds(oracle.im_psi_check(2, 2, 2))


def test_eigen_equation_runs_on_a_warm_context(monkeypatch):
    assert oracle.im_psi_check(3, 2, 2).ok
    indicator = oracle.fiber_indicator
    monkeypatch.setattr(oracle, "fiber_indicator", lambda ctx, forgotten: indicator(ctx, forgotten).scale(2))
    assert "pullback not an eigenfunction" in _kinds(oracle.im_psi_check(3, 2, 2))


def test_coset_row_audit_runs_on_a_warm_context(monkeypatch):
    assert oracle.lift_trials(3, 2, 2, 1, 0).ok
    monkeypatch.setattr(FlagContext, "fiber_size", lambda self, forgotten: 1)
    with pytest.raises(InternalInvariantError, match="fiber size"):
        oracle.lift_trials(3, 2, 2, 1, 0)


def test_coset_column_audit_runs_on_a_warm_context(monkeypatch):
    assert oracle.lift_trials(3, 2, 2, 1, 0).ok
    exact = FlagContext.pushforward

    # one unit of the first coset's row moved onto an orbit of the second
    # coset's row, in the rows the coset table reads
    def moved(self, left, source, forgotten):
        rows = exact(self, left, source, forgotten)
        if (left, source) != ("X", "X") or len(rows) < 2:
            return rows
        rows = dict(rows)
        first, second = list(rows)[:2]
        (a, m), *rest = rows[first]
        rows[first] = ((a, m - 1), *rest, (rows[second][0][0], 1))
        return rows

    monkeypatch.setattr(FlagContext, "pushforward", moved)
    with pytest.raises(InternalInvariantError, match="exactly one coset"):
        oracle.lift_trials(3, 2, 2, 1, 0)


def test_lift_round_trip_check_runs_on_a_warm_context(monkeypatch):
    assert oracle.lift_trials(3, 2, 2, 1, 0).ok
    ctx = shared_context(3, 2, 2)
    f = OrbitFunction(ctx, "X", "X", {lab: 1 for lab in basis_labels(ctx, "X", "X")})
    family = {forgotten: theta(f, forgotten) for forgotten in ctx.valid_components()}
    assert lift_family(ctx, family)
    monkeypatch.setattr(oracle, "theta", lambda g, forgotten: theta(g, forgotten).scale(2))
    with pytest.raises(IncompatibleFamilyError, match="admits no lift"):
        lift_family(ctx, family)
