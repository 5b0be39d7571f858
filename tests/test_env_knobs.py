"""The library and the benchmarks read no ``REPRO_*`` environment knobs.

Scale and slack live in module constants and function arguments, so a
run is fixed by its code and command line.  The scan walks the ``ast``
of every module under ``src/`` and ``benchmarks/`` and fails on any
``REPRO_`` string outside a docstring: the key an ``os.environ`` or
``os.getenv`` read would need.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _knob_strings(path):
    tree = ast.parse(path.read_text())
    # Docstrings and other bare string statements document, they do not read.
    prose = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    return [
        f"{path.relative_to(ROOT)}:{node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and "REPRO_" in node.value
        and id(node) not in prose
    ]


@pytest.mark.parametrize("tree", ["src", "benchmarks"])
def test_no_repro_environment_knobs(tree):
    paths = sorted((ROOT / tree).rglob("*.py"))
    assert paths
    found = [hit for path in paths for hit in _knob_strings(path)]
    assert found == []
