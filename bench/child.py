"""One pass of one workload in a fresh interpreter; prints one JSON line.

Usage: python3 bench/child.py WORKLOAD SEED TRACE [LIMIT]

LIMIT keeps only the first LIMIT operations (for the smoke test).

The parent (``run.py``) starts this once per pass so that the package's
module-level caches start cold and the peak RSS belongs to the pass alone.
Exit code 3 means the benchmark refuses to give a result: ``affhecke``
came from somewhere other than this checkout's ``src/``, or the generated
inputs no longer hash to the committed value.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().with_name("reference.json")
TRACE_DIR = ROOT / ".bench_out"


def refuse(message: str) -> None:
    print("bench: " + message, file=sys.stderr)
    sys.exit(3)


def load_package():
    sys.path.insert(0, str(SRC))
    import affhecke

    origin = Path(affhecke.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        refuse("affhecke was imported from %s, not from %s" % (origin, SRC))
    import workloads

    return workloads


def run_pass(workload: str, seed: int, traced: bool, limit: int | None = None) -> dict:
    workloads = load_package()
    _, make_inputs, outcome = workloads.WORKLOADS[workload]
    ops = make_inputs(seed)[:limit]
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    results, errors, latencies = [], [], []
    clock = time.perf_counter
    first_op_at = time.monotonic()
    start = clock()
    for i, op in enumerate(ops):
        if tracer:
            tracer.begin_op(i)
        t0 = clock()
        try:
            result, error = op.call(), None
        except Exception as exc:  # an uncaught exception is a failed operation
            result, error = None, "%s: %s" % (type(exc).__name__, exc)
        latencies.append(clock() - t0)
        if tracer:
            tracer.end_op(result[0] if workload == "cli_mix" and error is None else None)
        results.append(result)
        errors.append(error)
    wall = clock() - start
    trace_metrics = tracer.metrics() if tracer else None

    # checked after the timed loop so that set-up time holds no benchmark work
    reference = json.loads(REFERENCE.read_text())[workload]
    if workloads.inputs_digest(workload) != reference["inputs"]:
        refuse("the inputs of %s no longer match reference.json" % workload)
    failures, lines = workloads.judge(ops, results, errors, outcome, reference["digests"])
    out = {
        "first_op_at": first_op_at,
        "wall_s": wall,
        "latencies": latencies,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "attempted": len(ops),
        "failures": failures,
        "digest": workloads.sha("\n".join(sorted(lines))),
    }
    if tracer:
        out["trace"] = trace_metrics
        out["trace_missing"] = tracer.missing
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.dump(TRACE_DIR / ("trace-%s-seed%d.json" % (workload, seed)))
    return out


def main() -> None:
    workload, seed, traced = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    limit = int(sys.argv[4]) if len(sys.argv) > 4 else None
    print(json.dumps(run_pass(workload, seed, traced, limit)))


if __name__ == "__main__":
    main()
