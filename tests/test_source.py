"""Checks on the source text of the package and its tests."""

import ast
import pathlib
from collections import Counter

import pytest

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_MODULES = sorted([*(_ROOT / "src" / "nlops").glob("*.py"), *(_ROOT / "tests").glob("*.py")])


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_top_level_name_is_defined_twice(path):
    # A second def or class of a name silently replaces the first for every later use.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = Counter(node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
    assert [name for name, count in names.items() if count > 1] == []
