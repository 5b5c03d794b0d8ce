"""Each script in demos/ prints exactly its committed output.

The golden files in tests/demo_outputs/ hold the bytes each demo wrote to
stdout; regenerate one with

    PYTHONPATH=src python3 demos/<name>.py > tests/demo_outputs/<name>.txt

only when a change to its output is intended.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().with_name("demo_outputs")


def test_every_demo_has_a_golden_file():
    assert [p.stem for p in DEMOS] == sorted(p.stem for p in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_its_golden_output(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / (demo.stem + ".txt")).read_bytes()
