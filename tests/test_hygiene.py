"""Source hygiene: every name a module imports is used in that module, every
scenario setting has one file key and one README row, and every record key
the checker reads is one whose type a trace file is checked against."""

import ast
import re
from dataclasses import fields
from pathlib import Path

import pytest

from batchcast.scenarios import SCENARIO_KEYS, KeyTable
from batchcast.simnet import _EXTRA_KEYS, DelayPolicy, Scenario

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


def _key_rows(table, prefix=""):
    """(target class, attribute, dotted key) of each row of a key table; a
    nested table of a dataclass (not one of list entries) has no key of its
    own, its rows follow in its place."""
    for key, (attr, kind) in table.rows.items():
        if isinstance(kind, KeyTable) and kind.target is not dict:
            yield table.target, attr, None
            yield from _key_rows(kind, f"{prefix}{key}.")
        else:
            yield table.target, attr, prefix + key


def test_every_setting_has_one_file_key_and_one_readme_row():
    rows = list(_key_rows(SCENARIO_KEYS))
    for cls in (Scenario, DelayPolicy):
        for f in fields(cls):
            assert [attr for target, attr, _ in rows
                    if (target, attr) == (cls, f.name)] == [f.name], f.name
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("| key | type | range | default |\n")[1]
    table = table.split("\n\n")[0].splitlines()[1:]
    documented = [re.match(r"\| `([^`]+)` \|", line)[1] for line in table]
    assert sorted(documented) == sorted(key for _, _, key in rows if key)


def _selected(tree: ast.Module) -> list:
    """(kind, keys) of each `select` or `scan` call, a keys name read from
    its assignment."""
    named = {target.id: node.value for node in ast.walk(tree)
             if isinstance(node, ast.Assign) for target in node.targets
             if isinstance(target, ast.Name)}
    calls = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("select", "scan")):
            kind, keys = (*node.args, ast.Tuple([]))[:2]
            if isinstance(keys, ast.Name):
                keys = named[keys.id]
            calls.append((ast.literal_eval(kind), ast.literal_eval(keys)))
    return calls


def _untyped(calls) -> list:
    return [(kind, key) for kind, keys in calls for key in keys
            if key not in dict(_EXTRA_KEYS.get(kind, ()))]


def test_every_key_the_checker_reads_has_a_type():
    """A key `TraceEvent.from_record` does not type-check reaches the
    checker unchecked, where a missing or wrong-typed one is a traceback."""
    path = next(p for p in SOURCES if p.name == "properties.py")
    calls = _selected(ast.parse(path.read_text(), filename=str(path)))
    assert ("scenario", ("servers", "brokers", "clients")) in calls
    assert _untyped(calls) == []
    sloppy = _selected(ast.parse('keys = ("client", "note")\n'
                                 't.scan("app_deliver", keys)\n'
                                 't.select("odd", ("x",))\n'
                                 't.select("signup")\n'))
    assert _untyped(sloppy) == [("app_deliver", "note"), ("odd", "x")]
