"""Every public library name has a caller outside the tests.

A top-level function or class in ``src/repro`` that nothing in ``src/``,
``benchmarks/``, ``examples/`` or ``perfbench/`` mentions is code only the
tests reach. The scan is textual: a name counts as referenced when it
occurs as a whole word in any of those files, outside its own definition
(body included) and outside package ``__init__.py`` re-exports. Names
kept on purpose are listed in :data:`KEPT`, each with its reason.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SEARCHED = ("src", "benchmarks", "examples", "perfbench")
WORD = re.compile(r"\w+")

#: Qualified name -> why it stays although only tests call it.
KEPT = {
    "repro.analysis.interval_iteration.interval_until_values": (
        "reference for the exact interval-iteration bounds (vertex item)"
    ),
    "repro.analysis.interval_iteration.interval_probability_bounds": (
        "reference for the exact interval-iteration bounds (vertex item)"
    ),
    "repro.importance.likelihood.check_absolute_continuity": (
        "the Eq. 7 support condition; the coverage item wires it in"
    ),
    "repro.importance.estimator.importance_sampling_estimate": (
        "the one-call IS entry point the estimator tests build on"
    ),
    "repro.lang.builder.build_dtmc": "the DTMC sibling of build_ctmc",
    "repro.models.swat.state_of": "the inverse of state_index; pins its encoding",
    "repro.smc.intervals.bernoulli_ci": "Section II-C interval formula",
    "repro.smc.intervals.wilson_ci": "Section II-C interval formula",
    "repro.smc.intervals.okamoto_sample_size": "Section II-B Okamoto bound",
    "repro.smc.intervals.chernoff_ci": "Section II-C interval formula",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _public_definitions():
    """``(qualified name, name, path, first line, last line)`` per definition."""
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    qualified = f"{_module_name(path)}.{node.name}"
                    yield qualified, node.name, path, node.lineno, node.end_lineno


def _words_per_line() -> "dict[Path, list[list[str]]]":
    return {
        path: [WORD.findall(line) for line in path.read_text(encoding="utf-8").splitlines()]
        for base in SEARCHED
        for path in sorted((ROOT / base).rglob("*.py"))
        if path.name != "__init__.py"
    }


def _unreferenced() -> "set[str]":
    words = _words_per_line()
    total = Counter(word for lines in words.values() for line in lines for word in line)
    found = set()
    for qualified, name, path, first, last in _public_definitions():
        own = sum(line.count(name) for line in words.get(path, [])[first - 1 : last])
        if total[name] == own:
            found.add(qualified)
    return found


def test_every_public_name_has_a_caller():
    unreferenced = _unreferenced()
    assert sorted(unreferenced - KEPT.keys()) == [], (
        "only tests reach these; delete them or add them to KEPT with a reason"
    )
    assert sorted(KEPT.keys() - unreferenced) == [], (
        "these KEPT names are gone or now have a caller; drop them from KEPT"
    )
