"""Tests of the benchmark itself.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(99) == 50
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(999) == 90
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(10000) == 99.9


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert sum(v > run.percentile(values, 90) for v in values) == 10


def test_self_time_from_nested_spans():
    spans = [
        ("canonical.basis", 0.0, 10.0, -1),
        ("hecke.mul", 2.0, 6.0, 0),
        ("linalg.int_rank", 3.0, 4.0, 1),
        ("canonical.bar", 7.0, 9.0, 0),
    ]
    leaves = {
        (1, "laurent.mul"): (100, 0.5),  # under hecke.mul
        (-1, "weyl.compose"): (3, 0.25),  # outside every span
    }
    self_s = tracing.layer_self_times(spans, leaves)
    assert self_s["canonical"] == (10 - 4 - 2) + 2
    assert self_s["hecke"] == 4 - 1 - 0.5
    assert self_s["linalg"] == 1
    assert self_s["laurent"] == 0.5
    assert self_s["weyl"] == 0.25
    assert set(self_s) == set(tracing.LAYERS)


def test_fail_frac_counts_corrupted_output_and_unexpected_exit():
    pool = workloads.cli_universe()
    ok_op = next(op for op in pool if op.expect == 0)
    bad_op = next(op for op in pool if op.expect == 2)
    good = ok_op.call()
    reference = {op.key: workloads.cli_outcome(op, op.call())[1] for op in (ok_op, bad_op)}
    ops = [ok_op, ok_op, bad_op, ok_op]
    results = [
        good,
        (good[0], good[1] + "corrupted"),  # exit 0, wrong output
        (0, ""),  # malformed request accepted: unexpected exit code
        None,
    ]
    errors = [None, None, None, "ValueError: boom"]
    failures, lines = workloads.judge(ops, results, errors, workloads.cli_outcome, reference)
    assert len(lines) == 4
    assert len(failures) == 3  # fail_frac = 3 / 4
    assert "ValueError: boom" in failures[-1]


def test_error_exit_with_output_fails():
    assert workloads.cli_ok(2, "", 2)
    assert not workloads.cli_ok(2, "partial\n", 2)
    assert not workloads.cli_ok(0, "x\n", 2)


def test_declared_metrics_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    fake = {"setup_s": 0.1, "wall_s": 1.0, "peak_rss_kib": 1024, "latencies": [0.001] * 100}
    assert set(run.end_to_end([fake])) == e2e
    tracer = tracing.Tracer()
    assert set(tracer.metrics()) | {"trace_overhead"} == {m["name"] for m in spec["per_layer"]}


def test_smoke_every_workload_traced():
    for workload in run.WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), workload, "0", "1", "12"],
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        result = json.loads(out.splitlines()[-1])
        assert result["attempted"] == 12
        assert result["failures"] == []
        assert result["trace_missing"] == []
        assert result["trace"]["%s.self_s" % {"kl_sweep": "canonical", "oracle_sweep": "oracle",
                                             "cli_mix": "cli"}[workload]] > 0


def test_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kl_sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
