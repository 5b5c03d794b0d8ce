"""Every name the benchmark's tracer wraps still exists in the package.

``bench/tracing.py`` rebinds package attributes by name and notes a missing
one only when a traced run installs it, so a moved function would silently
drop its metrics.  These tests read its tables without installing anything.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_an_attribute_of_its_owner():
    missing = [name for name, owner, attr, *_ in _tracing().TARGETS if attr not in vars(owner)]
    assert missing == []


def test_every_traced_cache_reports_its_info():
    missing = [name for name, owner, attr in _tracing().CACHES
               if not hasattr(vars(owner).get(attr), "cache_info")]
    assert missing == []
