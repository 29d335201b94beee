"""Source hygiene: every name a module imports is used in that module, every
scenario setting has one file key and one README row, every behavior and
each of its spec keys have one README row, every writer of a checked record
kind passes the keys its schema requires, and every dotted name the docs
quote still names something."""

import ast
import importlib
import json
import re
from dataclasses import fields
from functools import reduce
from itertools import chain
from pathlib import Path

import pytest

import batchcast
from batchcast.behaviors import BEHAVIORS
from batchcast.scenarios import SCENARIO_KEYS, KeyTable
from batchcast.simnet import (_ABSENT, _EXTRA_KEYS, _JSON_TYPES, DelayPolicy,
                              Scenario)

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "batchcast"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
    readme = (ROOT / "README.md").read_text()
    table = readme.split("| key | type | range | default |\n")[1]
    table = table.split("\n\n")[0].splitlines()[1:]
    documented = [re.match(r"\| `([^`]+)` \|", line)[1] for line in table]
    assert sorted(documented) == sorted(key for _, _, key in rows if key)


_JSON_TYPE_NAMES = {int: "integer", str: "string"}


def _json_type(kind) -> str:
    """The README's name of a fault-script key's key-table kind."""
    if type(kind) is list:
        return f"list of {_JSON_TYPE_NAMES[kind[0]]}s"
    return _JSON_TYPE_NAMES[kind]


def test_every_behavior_and_spec_key_has_one_readme_row():
    """(behavior, process, key, type) per README row; a behavior without
    keys has one row with no key."""
    readme = (ROOT / "README.md").read_text()
    table = readme.split("| behavior | process | key | type | range |\n")[1]
    table = table.split("\n\n")[0].splitlines()[1:]
    documented = [tuple(cell.strip(" `") for cell in line.split("|")[1:5])
                  for line in table]
    rows = [(name, process.name.lower(), key, _json_type(kind))
            for name, (process, _, keys, _) in BEHAVIORS.items()
            for key, (kind, _) in keys.items()]
    rows += [(name, process.name.lower(), "", "")
             for name, (process, _, keys, _) in BEHAVIORS.items() if not keys]
    assert sorted(documented) == sorted(rows)


def _writes(tree: ast.Module) -> list:
    """(kind, keys, line) of each `emit("kind", key=...)` call and each
    `add(time, "kind", src, dst, bytes_len, tag, {"key": ...})` call; keys
    passed in any other form (`**extra`) are not read, so count as absent."""
    writes = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        args = node.args
        if node.func.attr == "emit" and args:
            kind, keys = args[0], [kw.arg for kw in node.keywords]
        elif node.func.attr == "add" and len(args) == 7:
            kind, extra = args[1], args[6]
            keys = [key.value for key in getattr(extra, "keys", ())
                    if isinstance(key, ast.Constant)]
        else:
            continue
        if isinstance(kind, ast.Constant) and isinstance(kind.value, str):
            writes.append((kind.value, keys, node.lineno))
    return writes


def _missing(writes) -> list:
    """(kind, line, key) of each key the schema requires of a write's kind
    that the write does not pass; a key that may be absent is not required."""
    return [(kind, line, key) for kind, keys, line in writes
            for key, type_name in _EXTRA_KEYS.get(kind, ())
            if key not in keys and not _JSON_TYPES[type_name](_ABSENT)]


def test_every_writer_of_a_checked_kind_passes_the_keys_it_requires():
    """A record the simulator writes without a key the checker reads would
    check as malformed once written to a file and read back."""
    writes = {path.name: _writes(ast.parse(path.read_text(), str(path)))
              for path in SOURCES}
    kinds = {kind for found in writes.values() for kind, _, _ in found}
    assert set(_EXTRA_KEYS) <= kinds  # every checked kind has a writer here
    assert {name: _missing(found) for name, found in writes.items()
            if _missing(found)} == {}
    sloppy = _writes(ast.parse(
        'ctx.emit("broadcast", context=c)\n'
        'ctx.emit("dir_import", id=i, keycard=k)\n'
        'ctx.emit("fb_deliver", **extra)\n'
        'trace.add(0, "scenario", 0, 0, 0, 0, {"servers": 4, "brokers": 1})\n'
        'ctx.emit("signup")\n'
        'seen.add(key)\n'))
    assert _missing(sloppy) == [
        ("broadcast", 1, "message"), ("fb_deliver", 3, "origin"),
        ("fb_deliver", 3, "seq"), ("fb_deliver", 3, "payload"),
        ("scenario", 4, "clients")]


DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
DOTTED_NAME = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")
MODULES = [importlib.import_module(f"batchcast.{path.stem}")
           for path in SOURCES]
BENCH_METRICS = {metric["name"] for metric in chain.from_iterable(
    json.loads((ROOT / "BENCHMARK.json").read_text())[table]
    for table in ("end_to_end", "per_layer"))}
SCENARIO_FILE_KEYS = {key for _, _, key in _key_rows(SCENARIO_KEYS) if key}


def _resolves(name: str) -> bool:
    """Whether `name` is a bench metric, a scenario file key, a file of the
    package (or at the root of the repository), or an attribute chain from
    `batchcast` or one of its modules."""
    if (name in BENCH_METRICS or name in SCENARIO_FILE_KEYS
            or (PACKAGE / name).is_file() or (ROOT / name).is_file()):
        return True
    head, *rest = name.split(".")
    for scope in (batchcast, *MODULES):
        try:
            reduce(getattr, rest, getattr(scope, head))
            return True
        except AttributeError:
            pass
    return False


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
def test_every_dotted_name_in_the_docs_resolves(path):
    names = set(DOTTED_NAME.findall(path.read_text()))
    assert names
    assert {name for name in names if not _resolves(name)} == set()


def test_the_check_sees_a_stale_dotted_name():
    assert DOTTED_NAME.findall("`a.b` `c` `d.e(f)` `g.h`") == ["a.b", "g.h"]
    for name in ("simnet.Trace.select", "Scenario.validate", "wire.py",
                 "random.Random.randrange", "fifocast.s", "BENCHMARK.json",
                 "delay_policy.kind"):
        assert _resolves(name), name
    for name in ("TraceEvent.from_record", "Trace.append", "simnet.nothing",
                 "nothing.py", "fifocast.t", "delay_policy.value"):
        assert not _resolves(name), name
