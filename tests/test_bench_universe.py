"""Every benchmark operation reads its committed output digest.

``bench/workloads.py`` and ``bench/reference.json`` are read, never
written, as ``test_bench_targets.py`` reads the tracer.  Each workload's
whole universe runs once: every ``kl_sweep`` element, every
``oracle_sweep`` report and every request of the ``cli_mix`` pool, not
only the sample one seed draws.
"""

import functools
import importlib.util
import json
from pathlib import Path

import pytest

from affhecke import canonical, hecke

BENCH = Path(__file__).resolve().parent.parent / "bench"

pytestmark = pytest.mark.usefixtures("fresh_shared_contexts")


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["kl_sweep", "oracle_sweep", "cli_mix"])
def test_every_operation_reads_its_reference_digest(name):
    workloads = _workloads()
    reference = json.loads((BENCH / "reference.json").read_text())[name]
    assert workloads.inputs_digest(name) == reference["inputs"]
    universe, _, outcome = workloads.WORKLOADS[name]
    ops = universe()
    assert {op.key for op in ops} == set(reference["digests"])
    results, errors = [], []
    for op in ops:
        try:
            results.append(op.call())
            errors.append(None)
        except Exception as exc:  # judged as a failed operation
            results.append(None)
            errors.append("%s: %s" % (type(exc).__name__, exc))
    failures, _ = workloads.judge(ops, results, errors, outcome, reference["digests"])
    assert failures == []


def test_a_seeded_kl_sweep_pass_fills_the_one_inverse_table(fresh_bar_table, monkeypatch):
    # the README's figures: one slot width per rank, one id per window of
    # either rank, every inverse the pass stored and none dropped
    monkeypatch.setattr(canonical, "_canonical_value", functools.lru_cache(maxsize=4096)(
        canonical._canonical_value.__wrapped__))
    for op in _workloads().kl_inputs(0):
        op.call()
    table = hecke._TABLE
    assert table.widths == {3: 32, 4: 16} and not table.full
    assert (len(table), len(table.inverses), table.terms) == (331, 329, 10_078)
    assert sum(len(t) == 3 for t in table) == 136
