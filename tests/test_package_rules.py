"""Rules the whole package keeps: it imports nothing outside the standard
library nor ``typing``, every cache at module level is bounded, and every
name it exports is used outside the tests."""

import ast
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


def test_no_module_imports_typing():
    # -S skips site, whose hooks (a .pth file, say) may load typing first
    code = "import sys\nimport %s\nprint('typing' in sys.modules)\n" % ", ".join(MODULES)
    src = str(Path(affhecke.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
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


# Self-checks with no caller yet: the span certificates of the ideals,
# which ROADMAP item 2 gives a benchmark row.
UNCALLED_EXPORTS = {"generated_span_check", "double_coset_span_check"}


def test_every_exported_name_has_a_caller_outside_the_tests():
    # a name, an attribute, an import alias or a string constant counts: the
    # benchmark's tracer and its workloads name functions by string
    root = Path(affhecke.__file__).resolve().parents[2]
    package = [p for p in sorted((root / "src" / "affhecke").glob("*.py")) if p.name != "__init__.py"]
    used = set()
    for path in package + sorted((root / "demos").glob("*.py")) + sorted((root / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    assert sorted(set(affhecke.__all__) - used - UNCALLED_EXPORTS) == []
