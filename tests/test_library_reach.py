"""The library is what the CLI, the benchmark and the oracles run: every
function, class and method that a module of the package other than
``oracles.py`` defines is referenced from the package or from ``bench/``.
Helpers that only tests call live in ``tests/``.

References are matched by bare name, which cannot tell two definitions of
one name apart: ``surface.r`` would count for any method named ``r``.  So
a method whose name is defined elsewhere in the package too (a function,
a class, a field or an assigned attribute), or is an attribute of a
builtin type, must name its reader in ``READERS``: a function of the
package that reads the name as an attribute of that class's instances.
The table is reviewed by hand; the test checks that each reader exists
and reads the name."""

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
# "Class.method" -> "module:function" or "module:Class.method" reading it
READERS = {
    "AmbientSurface.r": "cli:surface_report",
    "BrokenEdge.is_odd": "surface:AmbientSurface.tubular_type",
    "Polygon.boundary_length": "cli:check_size",
    "Polygon.broken_edges": "triangulation:PrimitiveTriangulation.__init__",
    "Polygon.census": "tcurve:predicted_harnack_census",
    "Polygon.edges": "lattice:Polygon.boundary_length",
    "Polygon.interior_points": "lattice:Polygon.census",
    "Polygon.r": "surface:AmbientSurface.r",
    "PrimitiveTriangulation.E": "filling:TFilling.chi",
    "PrimitiveTriangulation.L": "filling:harnack_check",
    "PrimitiveTriangulation.T": "filling:TFilling.chi",
    "PrimitiveTriangulation.V": "cli:run_subcommand",
    "PrimitiveTriangulation.edges": "filling:TFilling.__init__",
    "PrimitiveTriangulation.slots": "oracles:edge_triangles",
    "Regions.euler": "tcurve:Regions.disks",
    "TCurve.census": "cli:curve_report",
    "TCurve.copy_signs": "tcurve:Regions.__init__",
}
BUILTIN_ATTRIBUTES = {name for t in (object, int, str, bytes, bytearray, list,
                                     tuple, dict, set, frozenset)
                      for name in dir(t)}


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


def definitions(tree) -> Counter:
    """Names that ``tree`` defines: functions, classes, class-level fields
    and assigned attributes."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] += 1
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                targets = ([stmt.target] if isinstance(stmt, ast.AnnAssign)
                           else stmt.targets if isinstance(stmt, ast.Assign) else [])
                out.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            out[node.attr] += 1
    return out


def methods(tree):
    """(class name, method node) for every method of every class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, stmt


def find_function(tree, dotted: str):
    """The function ``name`` or method ``Class.name`` defined in ``tree``."""
    *owner, name = dotted.split(".")
    scope = tree.body
    if owner:
        scope = next((n.body for n in scope
                      if isinstance(n, ast.ClassDef) and n.name == owner[0]), [])
    return next((n for n in scope if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and n.name == name), None)


def reads_attribute(node, name: str) -> bool:
    return any(isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
               and n.attr == name for n in ast.walk(node))


def unreached(trees: dict, from_bench: set, readers: dict) -> list:
    """Problems with the reach of ``trees`` (module file name -> AST):
    definitions outside ``oracles.py`` nothing references, colliding
    methods without a reader in ``readers``, and entries of ``readers``
    that name no colliding method or a function that does not read it."""
    in_package = sum(map(references, trees.values()), Counter())
    defined = sum(map(definitions, trees.values()), Counter())
    out = []
    colliding = set()
    for name, tree in trees.items():
        if name == "oracles.py":
            continue
        for cls, node in methods(tree):
            if node.name.startswith("__") or node.name in EXEMPT:
                continue
            if defined[node.name] > 1 or node.name in BUILTIN_ATTRIBUTES:
                colliding.add(f"{cls}.{node.name}")
                if f"{cls}.{node.name}" not in readers:
                    out.append(f"{name}: {cls}.{node.name} shares its name "
                               "and names no reader")
        out += sorted(
            f"{name}: {node.name}" for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("__") and node.name not in EXEMPT | from_bench
            # a reference from inside its own definition does not count
            and in_package[node.name] == references(node)[node.name])
    for method, reader in sorted(readers.items()):
        module, _, function = reader.partition(":")
        tree = trees.get(f"{module}.py")
        node = None if tree is None else find_function(tree, function)
        if method not in colliding:
            out.append(f"{method}: not a colliding method")
        elif node is None or not reads_attribute(node, method.split(".")[1]):
            out.append(f"{method}: {reader} does not read it")
    return out


def test_every_definition_is_reached():
    trees = {p.name: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")
             if p.name != "__init__.py"}
    from_bench = set()
    for p in (ROOT / "bench").glob("*.py"):
        from_bench |= set(references(ast.parse(p.read_text()), strings=True))
    assert unreached(trees, from_bench, READERS) == []


PLANTED = {
    "atlas.py": "class Atlas:\n"
                "    def r(self):\n"
                "        return 1\n"
                "    def split(self):\n"
                "        return 2\n",
    "surface.py": "class AmbientSurface:\n"
                  "    def __init__(self):\n"
                  "        self.r = 3\n"
                  "def report(surface, text):\n"
                  "    return surface.r, text.split()\n"
                  "def main(atlas):\n"
                  "    return report(AmbientSurface(), str(atlas)), Atlas\n",
}


def test_colliding_names_need_a_reader():
    """``Atlas.r`` and ``Atlas.split`` look read through ``surface.r`` and
    ``str.split``; they pass only with a reader that reads them."""
    trees = {name: ast.parse(text) for name, text in PLANTED.items()}
    assert unreached(trees, {"main"}, {}) == [
        "atlas.py: Atlas.r shares its name and names no reader",
        "atlas.py: Atlas.split shares its name and names no reader"]
    readers = {"Atlas.r": "surface:report", "Atlas.split": "surface:report"}
    assert unreached(trees, {"main"}, readers) == []
    assert unreached(trees, {"main"}, {**readers, "Atlas.split": "atlas:Atlas.r",
                                    "AmbientSurface.r": "surface:report"}) == [
        "AmbientSurface.r: not a colliding method",
        "Atlas.split: atlas:Atlas.r does not read it"]


def test_package_exports_what_readme_documents():
    quick_start = re.search(r"from tcurve_lab import \(([^)]*)\)",
                            (ROOT / "README.md").read_text()).group(1)
    assert sorted(tcurve_lab.__all__) == sorted(quick_start.replace(",", " ").split())
    assert not [n for n in tcurve_lab.__all__
                if isinstance(getattr(tcurve_lab, n), types.ModuleType)]
