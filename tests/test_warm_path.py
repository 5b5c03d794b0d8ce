"""The warm path of the oracle: a repeated call builds nothing.

On a warm context each audited table is one lookup on the caller's raw
arguments, and a lift reads its order from one plan per context.  Reports
stay byte-identical to the ones recorded before either existed, in
``lift_trials_golden.json``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from affhecke import oracle
from affhecke.errors import InternalInvariantError
from affhecke.flags import FlagContext, shared_context

pytestmark = pytest.mark.usefixtures("fresh_shared_contexts")

GOLDEN = Path(__file__).resolve().parent / "lift_trials_golden.json"


@pytest.fixture
def memo_builds(monkeypatch):
    """The keys ``_memo`` receives that are not yet in their store."""
    built = []
    memo = FlagContext._memo

    def recording(self, key, build, field=False):
        if key not in (self._field if field else self._cache):
            built.append(key)
        return memo(self, key, build, field)

    monkeypatch.setattr(FlagContext, "_memo", recording)
    return built


@pytest.mark.parametrize("check,args", [
    ("verify_hecke_iso", (3, 2)),
    ("bicommutant_check", (3, 1, 2)),
    ("im_psi_check", (3, 2, 2)),
    ("lift_trials", (3, 3, 2, 2, 0)),
])
def test_a_second_identical_call_builds_nothing(memo_builds, check, args):
    cold = getattr(oracle, check)(*args)
    assert memo_builds
    memo_builds.clear()
    assert getattr(oracle, check)(*args) == cold
    assert memo_builds == []


def test_a_warm_table_is_one_lookup_and_equal_point_sets_share_it(monkeypatch):
    ctx = shared_context(3, 2, 3)  # at d = n nothing forgotten is the complete flags
    full = ("YI", ())
    table = ctx.label_table("X", "X")
    assert ctx.label_table(full, full) is table
    constants = ctx.structure_constants("X", full, "X")
    assert ctx.structure_constants("X", "X", "X") is constants
    pushed = ctx.pushforward("Y", "X", [2, 1])

    def unreachable(*args):
        raise AssertionError("a warm call resolved its key again")

    monkeypatch.setattr(FlagContext, "_memo", unreachable)
    monkeypatch.setattr(FlagContext, "space_id", unreachable)
    assert ctx.label_table(full, full) is table
    assert ctx.label_table("X", "X") is table
    assert ctx.structure_constants("X", "X", "X") is constants
    assert ctx.pushforward("Y", "X", [2, 1]) is pushed
    assert ctx.pushforward("Y", "X", (2, 1)) is pushed


@pytest.mark.parametrize("method,args,broken", [
    ("label_table", ("Y", "X"), "space_points"),
    ("structure_constants", ("Y", "X", "X"), "label_table"),
    ("pushforward", ("Y", "X", [1]), "forget_graph"),
])
def test_a_build_that_raises_leaves_no_hit_and_raises_again(monkeypatch, method, args, broken):
    ctx = FlagContext(2, 2, 2)

    def failing(self, *args):
        raise InternalInvariantError("tripped")

    with monkeypatch.context() as patch:
        patch.setattr(FlagContext, broken, failing)
        for _ in range(2):
            with pytest.raises(InternalInvariantError, match="tripped"):
                getattr(ctx, method)(*args)
            assert ctx._hits == {}
    value = getattr(ctx, method)(*args)
    assert getattr(ctx, method)(*args) is value


@pytest.mark.parametrize("setting", [(3, 2, 2), (3, 3, 2), (4, 1, 2)])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_lift_reports_and_lifts_match_the_golden_record(monkeypatch, setting, seed):
    # three trials each; the digest covers every lifted function, so the
    # random draws and their labels are pinned, not only the report
    lifted = []
    lift = oracle.lift_family

    def recording(ctx, family):
        out = lift(ctx, family)
        lifted.append(sorted(out.values.items()))
        return out

    monkeypatch.setattr(oracle, "lift_family", recording)
    expected = json.loads(GOLDEN.read_text())["%d,%d,%d,%d" % (setting + (seed,))]
    for _ in ("cold", "warm"):
        lifted.clear()
        report = oracle.lift_trials(*setting, 3, seed).to_json()
        digest = hashlib.sha256(json.dumps(lifted).encode()).hexdigest()
        assert {"lifted_sha256": digest, "report": report} == expected


def test_a_function_resolves_its_domain_once_when_built(monkeypatch):
    ctx = shared_context(3, 2, 3)  # at d = n nothing forgotten is the complete flags
    labels = oracle.basis_labels(ctx, "X", "X")
    f = oracle.OrbitFunction(ctx, "X", "X", {labels[0]: 1})
    g = oracle.OrbitFunction(ctx, ("YI", ()), ("YI", ()), {labels[0]: 1})
    with pytest.raises(ValueError, match="unknown point space"):
        oracle.OrbitFunction(ctx, "Z", "X", {})

    def unreachable(*args):
        raise AssertionError("a built function resolved its keys again")

    monkeypatch.setattr(FlagContext, "space_id", unreachable)
    assert f.domain == g.domain
    assert f == g and hash(f) == hash(g)


def test_a_warm_lift_trial_resolves_fewer_point_spaces(monkeypatch):
    oracle.lift_trials(3, 2, 2, 1, 0)
    calls = []
    space_id = FlagContext.space_id
    monkeypatch.setattr(FlagContext, "space_id", lambda self, key: calls.append(key) or space_id(self, key))
    oracle.lift_trials(3, 2, 2, 1, 0)
    # 52 when every comparison and domain check resolved both keys again
    assert 0 < len(calls) < 52
