"""Run one benchmark workload for a fixed time and print its metrics.

    python3 bench/run.py --workload kl_sweep --seed 0 --seconds 40 --trace 0

Each pass runs the workload's whole operation list in a fresh interpreter
(``child.py``), one pass at a time, until the next pass would overrun
``--seconds``; at least one pass always runs.  With ``--trace 0`` the
result carries the end-to-end metrics, medians over the passes.  With
``--trace 1`` untraced and traced passes alternate and the result carries
the per-layer metrics of the traced passes and ``trace_overhead``.

Lines starting with ``#`` describe the run for a human reader; the last
line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  On any error the program exits non-zero
without printing that line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("kl_sweep", "oracle_sweep", "cli_mix")
PERCENTILES = (50, 90, 99, 99.9)
MIN_BEYOND = 10
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# -- statistics -------------------------------------------------------------------


def _rank(p, count: int) -> int:
    """1-based nearest rank of percentile p among count samples."""
    return max(1, math.ceil(Fraction(str(p)) * count / 100))


def tail_percentile(count: int, candidates=PERCENTILES):
    """The highest candidate percentile with at least ten samples beyond it,
    or None when even the lowest has fewer."""
    allowed = [p for p in candidates if count - _rank(p, count) >= MIN_BEYOND]
    return max(allowed) if allowed else None


def percentile(values, p) -> float:
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


# -- passes -------------------------------------------------------------------------


def run_child(workload: str, seed: int, traced: bool) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed), "1" if traced else "0"]
    started = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("a %s pass ran past %d s" % (workload, CHILD_TIMEOUT_S)) from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError("pass exited with code %d:\n%s" % (proc.returncode, err.strip()[-3000:]))
    result = json.loads(out.splitlines()[-1])
    result["setup_s"] = result["first_op_at"] - started
    return result


def run_passes(workload: str, seed: int, seconds: float, traced: bool):
    """Rounds of one untraced pass (and one traced pass when tracing) until
    the next round would end after the deadline."""
    deadline = time.monotonic() + seconds
    plain, traced_passes, rounds = [], [], []
    while True:
        begun = time.monotonic()
        plain.append(run_child(workload, seed, False))
        if traced:
            traced_passes.append(run_child(workload, seed, True))
        rounds.append(time.monotonic() - begun)
        if time.monotonic() + statistics.median(rounds) > deadline:
            return plain, traced_passes


# -- metrics ------------------------------------------------------------------------


def end_to_end(passes: list[dict]) -> dict[str, float]:
    count = len(passes[0]["latencies"])
    if (tail_percentile(count) or 0) < 90:
        raise BenchError("%d operations per pass are too few for a p90" % count)
    per_pass = {
        "setup_s": [p["setup_s"] for p in passes],
        "wall_s": [p["wall_s"] for p in passes],
        "op_p50_ms": [percentile(p["latencies"], 50) * 1e3 for p in passes],
        "op_p90_ms": [percentile(p["latencies"], 90) * 1e3 for p in passes],
        "peak_rss_mib": [p["peak_rss_kib"] / 1024 for p in passes],
    }
    return {name: statistics.median(values) for name, values in per_pass.items()}


def declared_units(trace: bool) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def per_layer(plain: list[dict], traced: list[dict], units: dict) -> tuple[dict, list[str]]:
    """Medians of the traced passes' times; counts and ratios from the first
    traced pass, which every other traced pass must repeat exactly."""
    first = traced[0]["trace"]
    problems = [
        "%s differs between traced passes: %r vs %r" % (name, first[name], t["trace"][name])
        for t in traced[1:]
        for name in first
        if units.get(name) != "s" and t["trace"][name] != first[name]
    ]
    out = {}
    for name, value in first.items():
        if units.get(name) == "s":
            value = statistics.median(t["trace"][name] for t in traced)
        out[name] = value
    out["trace_overhead"] = (statistics.median(t["wall_s"] for t in traced)
                             / statistics.median(p["wall_s"] for p in plain))
    return out, problems


def git_commit(root: Path):
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": git_commit(ROOT),
        "loadavg": os.getloadavg(),
    }
    print("# run " + json.dumps(info), flush=True)
    try:
        plain, traced = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
        passes = plain + traced
        failures = [f for p in passes for f in p["failures"]]
        digests = sorted({p["digest"] for p in passes})
        problems = [] if len(digests) == 1 else ["passes disagree on the output digest"]
        units = declared_units(bool(args.trace))
        if args.trace:
            metrics, more = per_layer(plain, traced, units)
            problems += more
        else:
            metrics = end_to_end(plain)
        if set(metrics) != set(units):
            raise BenchError("metrics %s do not match BENCHMARK.json"
                             % sorted(set(metrics) ^ set(units)))
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    lat = [x for p in plain for x in p["latencies"]]
    tail = tail_percentile(len(lat))
    print("# passes: %d untraced, %d traced; %d operations per pass"
          % (len(plain), len(traced), plain[0]["attempted"]))
    print("# pass wall_s: %s" % " ".join("%.3f" % p["wall_s"] for p in passes))
    print("# output digest: %s" % digests[0])
    print("# fail_frac: %d / %d = %g" % (len(failures), attempted, len(failures) / attempted))
    print("# pooled latency: p50 %.4f ms, p%g %.4f ms over %d operations"
          % (percentile(lat, 50) * 1e3, tail, percentile(lat, tail) * 1e3, len(lat)))
    missing = sorted({name for p in traced for name in p["trace_missing"]})
    if missing:
        print("# trace targets missing from the package: %s" % " ".join(missing))
    for line in failures[:20] + problems:
        print("# FAILED " + line)
    for name in sorted(metrics):
        print("# %-40s %14.6g %s" % (name, metrics[name], units[name]))
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
