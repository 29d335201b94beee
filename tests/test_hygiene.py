"""Source hygiene: every name a module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).resolve().parent.parent
                             / "src" / "batchcast").glob("*.py")
                 if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict:
    """Name bound by each import (but `from __future__`) -> its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns


def _referenced(tree: ast.AST) -> set:
    """Names read anywhere, quoted annotations ("Trace") included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        if (isinstance(annotation, ast.Constant)
                and isinstance(annotation.value, str)):
            used |= _referenced(ast.parse(annotation.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _referenced(tree)
    unused = {name: line for name, line in _imported(tree).items()
              if name not in used}
    assert not unused, f"{path.name} imports but never uses {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom json import dumps, loads\n"
                     "from pathlib import Path\n"
                     "def f(x: 'Path') -> None:\n    return loads('os')\n")
    assert {n for n in _imported(tree) if n not in _referenced(tree)} == {
        "os", "dumps"}
