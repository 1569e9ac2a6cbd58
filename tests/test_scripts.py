"""Every example and benchmark script imports cleanly.

The scripts under ``examples/`` and ``benchmarks/`` run outside the test
suite, so a name they import that the library no longer has would
otherwise go unnoticed. Each is executed as a module named
``"imported"``: its imports and module-level definitions run, its
``__main__`` block does not.
"""

import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"
SCRIPTS = sorted(
    [
        *(ROOT / "examples").glob("*.py"),
        *BENCHMARKS.glob("bench_*.py"),
        BENCHMARKS / "soak_fleet.py",
        BENCHMARKS / "pairs.py",
    ]
)


@pytest.fixture
def script_imports(monkeypatch):
    """``benchmarks/`` on ``sys.path``; script-local modules dropped afterwards."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    before = set(sys.modules)
    yield
    for name in set(sys.modules) - before:
        path = getattr(sys.modules[name], "__file__", None) or ""
        if Path(path).resolve().parent in (BENCHMARKS, ROOT / "examples"):
            del sys.modules[name]


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: str(path.relative_to(ROOT)))
def test_script_imports(script, script_imports):
    namespace = runpy.run_path(str(script), run_name="imported")
    assert namespace["__name__"] == "imported"
