"""The modules that check the paper's invariants hold no ``assert``: their
checks raise ``InvariantError``, which ``python -O`` cannot strip."""

import ast
from pathlib import Path

import pytest

import tcurve_lab


@pytest.mark.parametrize("module", ("filling", "sweep", "tcurve", "triangulation"))
def test_no_assert(module):
    path = Path(tcurve_lab.__file__).parent / f"{module}.py"
    asserts = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Assert)]
    assert asserts == []
