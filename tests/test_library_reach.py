"""The library is what the CLI, the benchmark and the oracles run: every
function, class and method that a module of the package other than
``oracles.py`` defines is referenced from the package or from ``bench/``.
Helpers that only tests call live in ``tests/``."""

import ast
import re
import types
from collections import Counter
from pathlib import Path

import tcurve_lab

PACKAGE = Path(tcurve_lab.__file__).parent
ROOT = PACKAGE.parents[1]
EXEMPT = {
    "_make",         # NamedTuple's ``_replace`` builds through it
    "orient_curve",  # the report is to gain complex orientations (ROADMAP item 2)
}


def references(tree, strings=False) -> Counter:
    """Names loaded and attributes read in ``tree``; with ``strings``, also
    imported names and string constants (``bench/tracing.py`` patches the
    library by attribute name)."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif strings and isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def test_every_definition_is_reached():
    trees = {p.name: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")
             if p.name != "__init__.py"}
    in_package = sum(map(references, trees.values()), Counter())
    from_bench = set()
    for p in (ROOT / "bench").glob("*.py"):
        from_bench |= set(references(ast.parse(p.read_text()), strings=True))
    unreached = sorted(
        f"{name}: {node.name}" for name, tree in trees.items() if name != "oracles.py"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("__") and node.name not in EXEMPT | from_bench
        # a reference from inside its own definition does not count
        and in_package[node.name] == references(node)[node.name])
    assert unreached == []


def test_package_exports_what_readme_documents():
    quick_start = re.search(r"from tcurve_lab import \(([^)]*)\)",
                            (ROOT / "README.md").read_text()).group(1)
    assert sorted(tcurve_lab.__all__) == sorted(quick_start.replace(",", " ").split())
    assert not [n for n in tcurve_lab.__all__
                if isinstance(getattr(tcurve_lab, n), types.ModuleType)]
