"""Regenerate ``reference.json``: the output digest of every operation in
each workload's universe, and the hash of the generated inputs.

Run it only when the inputs change on purpose, on a commit whose outputs
are trusted; every operation must pass its own check first.

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import sys

from child import REFERENCE, load_package


def main() -> int:
    workloads = load_package()
    data = {}
    for name, (universe, _, outcome) in workloads.WORKLOADS.items():
        digests: dict[str, str] = {}
        for op in universe():
            ok, digest = outcome(op, op.call())
            if not ok or digests.setdefault(op.key, digest) != digest:
                print("%s: %s does not pass; no reference written" % (name, op.desc), file=sys.stderr)
                return 1
        data[name] = {"inputs": workloads.inputs_digest(name), "digests": digests}
        print("%s: %d digests" % (name, len(digests)))
    REFERENCE.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
