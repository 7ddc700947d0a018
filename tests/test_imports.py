"""Start-up: each command imports only what it runs.

``import repro`` resolves its public names on first access, so the CLI
can parse arguments without numpy and a default stitch never loads the
graph library, the sparse least-squares solver or the subpackages it
does not use.  Each check runs a fresh interpreter that prints
``sorted(sys.modules)`` at exit.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.recovery.harness import subprocess_env
from repro.synth import make_synthetic_dataset

SRC_DIR = Path(repro.__file__).resolve().parents[1]

#: Runs ``python -m repro ARGS`` and prints its modules at exit.
_MAIN_WITH_MODULES = """
import atexit, json, runpy, sys
atexit.register(lambda: print("MODULES " + json.dumps(sorted(sys.modules))))
sys.argv[0] = "repro"
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""


def _run(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True,
        env=subprocess_env(SRC_DIR), timeout=120,
    )


def _modules(code: str, *args: str) -> tuple[set[str], subprocess.CompletedProcess]:
    proc = _run(code, *args)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("MODULES ")]
    assert lines, f"no module list (exit {proc.returncode}):\n{proc.stderr}"
    return set(json.loads(lines[-1][len("MODULES "):])), proc


def _loaded(modules: set[str], *roots: str) -> list[str]:
    return sorted(m for m in modules
                  if any(m == r or m.startswith(r + ".") for r in roots))


HEAVY = ("numpy", "scipy", "networkx")
UNUSED_BY_STITCH = ("networkx", "scipy.sparse", "repro.synth",
                    "repro.service", "repro.simulate")


def test_import_cli_loads_no_numerics():
    modules, _ = _modules(
        "import json, sys, repro.cli; "
        "print('MODULES ' + json.dumps(sorted(sys.modules)))"
    )
    assert _loaded(modules, *HEAVY) == []


def test_help_loads_no_numerics():
    modules, proc = _modules(_MAIN_WITH_MODULES, "--help")
    assert proc.returncode == 0
    assert "stitch" in proc.stdout
    assert _loaded(modules, *HEAVY) == []


@pytest.fixture(scope="module")
def grids(tmp_path_factory):
    """A small grid, and one big enough that the cost model forks."""
    small = make_synthetic_dataset(
        tmp_path_factory.mktemp("small"), rows=3, cols=3,
        tile_height=48, tile_width=48, overlap=0.25, seed=5,
    )
    forked = make_synthetic_dataset(
        tmp_path_factory.mktemp("forked"), rows=10, cols=8,
        tile_height=64, tile_width=64, overlap=0.25, seed=5,
    )
    return {"small": small, "forked": forked}


@pytest.mark.parametrize("grid,workers,forks", [
    ("small", "1", False),
    ("forked", "auto", True),
])
def test_default_stitch_loads_only_what_it_runs(grids, tmp_path, grid,
                                                workers, forks):
    modules, proc = _modules(
        _MAIN_WITH_MODULES, "stitch", str(grids[grid].directory),
        "-o", str(tmp_path / "mosaic.tif"), "--workers", workers,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "mosaic.tif").is_file()
    assert ("repro.impls.proc_cpu" in modules) == forks
    assert _loaded(modules, *UNUSED_BY_STITCH) == []


# -- public names --------------------------------------------------------------


def test_exports_are_the_defining_modules_objects():
    for name in repro.__all__:
        if name == "__version__":
            continue
        obj = getattr(repro, name)
        home = importlib.import_module(obj.__module__)
        assert getattr(home, obj.__name__) is obj, name
        assert name in dir(repro)


def test_star_import():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["Stitcher"] is repro.Stitcher


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name  # noqa: B018


def test_version_needs_no_submodule():
    modules, _ = _modules(
        "import json, sys, repro; v = repro.__version__; "
        "print('MODULES ' + json.dumps(sorted(sys.modules)))"
    )
    assert _loaded(modules, "repro") == ["repro"]
    assert repro.__version__ == "1.0.0"


def test_core_functions_survive_same_named_submodules():
    # ccf, compose, pciam and downsample are both functions exported by
    # repro.core and names of its submodules.
    code = (
        "import inspect, repro.core.ccf, repro.core.compose, "
        "repro.core.pciam, repro.core.downsample, repro.core\n"
        "print([inspect.isfunction(getattr(repro.core, n)) for n in "
        "('ccf', 'compose', 'pciam', 'downsample')])"
    )
    proc = _run(code)
    assert proc.stdout.strip() == "[True, True, True, True]", proc.stderr
