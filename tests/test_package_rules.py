"""Rules the whole package keeps: it imports nothing outside the standard
library, and every cache at module level is bounded."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import affhecke

MODULES = sorted("affhecke." + info.name for info in pkgutil.iter_modules(affhecke.__path__))


def test_every_module_imports_only_the_standard_library():
    # modules loaded before the import, such as site hooks, are not counted
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import %s\n"
        "added = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(added - set(sys.stdlib_module_names) - {'affhecke'}))\n"
    ) % ", ".join(MODULES)
    src = str(Path(affhecke.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_the_command_line_loads_no_argparse():
    code = "import sys\nimport affhecke.cli\nprint('argparse' in sys.modules)\n"
    src = str(Path(affhecke.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_every_module_cache_is_bounded():
    sizes = {}
    for name in MODULES:
        module = importlib.import_module(name)
        for attr, value in vars(module).items():
            if hasattr(value, "cache_parameters") and value.__module__ == name:
                sizes[name + "." + attr] = value.cache_parameters()["maxsize"]
    assert "affhecke.flags.shared_context" in sizes  # the search finds caches
    assert not [cache for cache, size in sizes.items() if size is None]
