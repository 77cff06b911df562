"""No module of the package but ``oracles.py`` holds an ``assert``: the
checks raise ``InvariantError``, which ``python -O`` cannot strip."""

import ast
from pathlib import Path

import pytest

import tcurve_lab

PACKAGE = Path(tcurve_lab.__file__).parent
# the reference classifiers are cross-checks, not the paper's invariants
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "oracles")


@pytest.mark.parametrize("module", MODULES)
def test_no_assert(module):
    path = PACKAGE / f"{module}.py"
    asserts = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Assert)]
    assert asserts == []
