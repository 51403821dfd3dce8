"""What a fresh process imports: the lazy package and each subcommand's modules.

Every check runs in a child interpreter, because this pytest session has
already imported the whole package.
"""

import os
import subprocess
import sys

import pytest

from helpers import BENCH
from test_cli import GOLDEN_CASES, SRC, golden_bytes, run_cli

# Subcommand -> submodules its process must not import.
NOT_LOADED = {
    "dist": {"simplex", "horoboundary", "tangent"},
    "tangent": {"metrics", "horoboundary", "simplex"},
    "simplex-isom": {"metrics", "horoboundary", "tangent"},
    "parts": {"simplex"},
    "detour": {"simplex"},
}


def imported_modules(stderr: bytes) -> set:
    """Module names from the `-X importtime` lines of a child's stderr."""
    names = set()
    for line in stderr.decode().splitlines():
        if line.startswith("import time:") and "|" in line:
            names.add(line.rsplit("|", 1)[1].strip())
    return names


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("name,args", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_subcommand_import_budget(name, args):
    result = run_cli(*args, python_flags=("-X", "importtime"))
    assert result.returncode == 0
    assert result.stdout == golden_bytes(name)
    loaded = imported_modules(result.stderr)
    assert "hilbertgeom.cli" in loaded and "hilbertgeom.geometry" in loaded
    assert "dataclasses" not in loaded
    forbidden = {f"hilbertgeom.{module}" for module in NOT_LOADED[args[0]]}
    assert sorted(loaded & forbidden) == []


LAZY_PACKAGE = """
import importlib, sys
import hilbertgeom as hg

assert [m for m in sys.modules if m.startswith("hilbertgeom.")] == [], sys.modules
assert set(hg.__all__) <= set(dir(hg))
assert hg.geometry is sys.modules["hilbertgeom.geometry"]
assert "hilbertgeom.simplex" not in sys.modules
try:
    hg.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc), exc
else:
    raise AssertionError("an unknown name resolved")
for module, names in hg._HOMES.items():
    home = importlib.import_module(f"hilbertgeom.{module}")
    for name in names:
        assert getattr(hg, name) is getattr(home, name), name
        assert name in vars(hg), name
"""


def test_lazy_package_in_a_fresh_process():
    result = run_python(LAZY_PACKAGE)
    assert result.returncode == 0, result.stderr


def test_star_import_first_binds_exactly_all():
    result = run_python(
        "import hilbertgeom\n"
        "namespace = {}\n"
        "exec('from hilbertgeom import *', namespace)\n"
        "assert sorted(set(namespace) - {'__builtins__'}) == sorted(hilbertgeom.__all__)\n"
    )
    assert result.returncode == 0, result.stderr


# The benchmark's order: touch `hg.*` in set-up, install the tracer, run,
# uninstall.  Every binding of the package must be the original afterwards,
# including names first read while the tracer was installed.
TRACER_ORDER = f"""
import importlib, sys
sys.path.insert(0, {str(BENCH)!r})
import hilbertgeom as hg
import tracer as tracing

hg.HPolytope
t = tracing.Tracer()
t.install()
try:
    assert hasattr(hg.enumerate_parts, "__wrapped__")
    for name in hg.__all__:
        getattr(hg, name)
finally:
    t.uninstall()
for module, names in hg._HOMES.items():
    home = importlib.import_module(f"hilbertgeom.{{module}}")
    for name in names:
        assert vars(hg)[name] is getattr(home, name), name
        assert not hasattr(getattr(home, name), "__wrapped__"), name
"""


def test_tracer_leaves_the_package_bindings_original():
    result = run_python(TRACER_ORDER)
    assert result.returncode == 0, result.stderr
