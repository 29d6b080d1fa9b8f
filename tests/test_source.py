"""Checks on the source text of the package and its tests."""

import ast
import pathlib
from collections import Counter

import pytest

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_PACKAGE = sorted((_ROOT / "src" / "nlops").glob("*.py"))
_MODULES = sorted([*_PACKAGE, *(_ROOT / "tests").glob("*.py")])


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_top_level_name_is_defined_twice(path):
    # A second def or class of a name silently replaces the first for every later use.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = Counter(node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
    assert [name for name, count in names.items() if count > 1] == []


def _numpy_random_lines(tree):
    """Lines that import numpy.random or read it as an attribute of numpy."""
    numpy = {"numpy"} | {alias.asname for node in ast.walk(tree) if isinstance(node, ast.Import)
                         for alias in node.names if alias.name == "numpy" and alias.asname}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(alias.name.split(".")[:2] == ["numpy", "random"] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            hit = module[:2] == ["numpy", "random"] or (
                module == ["numpy"] and any(alias.name == "random" for alias in node.names))
        else:
            hit = (isinstance(node, ast.Attribute) and node.attr == "random"
                   and isinstance(node.value, ast.Name) and node.value.id in numpy)
        if hit:
            yield node.lineno


def test_no_package_module_refers_to_numpy_random():
    # numpy may change a Generator's stream in any feature release (NEP 19), and
    # importing numpy.random costs about 6 MB: every sweep the package runs is a
    # fixed list, and its one seeded draw uses the standard library.
    found = [f"{path.name}:{line}" for path in _PACKAGE
             for line in _numpy_random_lines(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
