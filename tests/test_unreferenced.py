"""Every public library name has a caller outside the tests.

A top-level function or class in ``src/repro`` that nothing in ``src/``,
``benchmarks/``, ``examples/`` or ``perfbench/`` uses is code only the
tests reach. The scan reads identifiers, not text: a name counts as
referenced when it is used as a name, an attribute or an imported name
in any of those files, outside its own definition (body included) and
outside package ``__init__.py`` re-exports. A mention in a string, a
docstring, a comment or an ``__all__`` list is not a use. Names kept on
purpose are listed in :data:`KEPT`, each with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SEARCHED = ("src", "benchmarks", "examples", "perfbench")

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
    "repro.smc.intervals.wilson_ci": "Section II-C interval formula",
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


def _identifier_uses(tree: ast.AST):
    """``(line, identifier)`` of every name, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.end_lineno, node.attr
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield node.lineno, part


def _uses_per_file() -> "dict[Path, list[tuple[int, str]]]":
    return {
        path: list(_identifier_uses(ast.parse(path.read_text(encoding="utf-8"), str(path))))
        for base in SEARCHED
        for path in sorted((ROOT / base).rglob("*.py"))
        if path.name != "__init__.py"
    }


def _unreferenced() -> "set[str]":
    uses = _uses_per_file()
    total = Counter(name for found in uses.values() for _, name in found)
    found = set()
    for qualified, name, path, first, last in _public_definitions():
        own = sum(
            1 for line, used in uses.get(path, []) if used == name and first <= line <= last
        )
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
