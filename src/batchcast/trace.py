"""The trace format: its record schema (`_BASE_TYPES`, `_EXTRA_KEYS`), its
columnar store (`Trace`), its JSON lines writer (`Trace.jsonl`, which runs
one generated f-string writer per key set, `_line_writer`) and its reader
(`load_trace_file`), which checks each record against the schema.
"""

from __future__ import annotations

import heapq
import json
import struct
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, count, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .procs import PROCESS_BOUNDS

_BASE_KEYS = ("time", "kind", "src", "dst", "bytes_len", "tag")
_CODE_KEYS = ("kind", "src", "dst", "tag")  # base fields held as name codes
_INT64 = 1 << 63
_ABSENT = object()  # a key the record does not hold


def _is_int(value) -> bool:
    return type(value) is int and -_INT64 <= value < _INT64


# the JSON types record fields are checked against, by name
_JSON_TYPES = {
    "an integer": _is_int,
    "a count": lambda v: _is_int(v) and v >= 0,
    "a string": lambda v: isinstance(v, str),
    "a string or null": lambda v: v is None or isinstance(v, str),
    "a string, null or absent": lambda v: (v is None or v is _ABSENT
                                           or isinstance(v, str)),
    "a pair of integers": lambda v: (type(v) is list and len(v) == 2
                                     and all(map(_is_int, v))),
}
_JSON_TYPES.update((f"an integer of at least 1 and at most {bound}",
                    lambda v, bound=bound: _is_int(v) and 1 <= v <= bound)
                   for bound in PROCESS_BOUNDS.values())
# the base fields with their defaults and types
_BASE_TYPES = (("src", None, "a string or null"),
               ("dst", None, "a string or null"),
               ("bytes_len", 0, "a count"),
               ("tag", "", "a string"))
_ASSIGNMENT_KEYS = (("id", "a pair of integers"), ("keycard", "a string"),
                    ("cert", "a string, null or absent"))
# per checked record kind, the event-specific keys the trace checker reads,
# in the order `Trace.select` gives them, and their JSON types: the one
# declaration of a checked kind's schema
_EXTRA_KEYS = {
    "scenario": tuple((key, f"an integer of at least 1 and at most {bound}")
                      for key, bound in PROCESS_BOUNDS.items()),
    "broadcast": (("context", "a string"), ("message", "a string")),
    "app_deliver": (("client", "a string"), ("context", "a string"),
                    ("message", "a string")),
    "dir_import": _ASSIGNMENT_KEYS,
    "dir_import_rejected": _ASSIGNMENT_KEYS,
    "assigner_record": (("keycard", "a string"), ("assigner", "an integer")),
    "fb_deliver": (("origin", "an integer"), ("seq", "an integer"),
                   ("payload", "a string")),
}
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


@dataclass(slots=True)
class TraceEvent:
    """One row as iterating a `Trace` yields it: six base fields, then
    event-specific keys in `extra`; `Trace.add_record` reads `to_json` back."""

    time: int
    kind: str
    src: str | None = None
    dst: str | None = None
    bytes_len: int = 0
    tag: str = ""
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return _ENCODER.encode({
            "time": self.time, "kind": self.kind, "src": self.src,
            "dst": self.dst, "bytes_len": self.bytes_len, "tag": self.tag,
            **self.extra})


def _unrepeated(pairs: list) -> dict:
    """The object of a JSON object's (key, value) `pairs`; ValueError names
    a key given twice."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ValueError(f"duplicate key {key!r}")
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unrepeated)


def parse_json(text: str):
    """The JSON document `text`; a key repeated in one object and nesting
    past the recursion limit are ValueErrors."""
    try:
        return _DECODER.decode(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


# codes every store gives the same names: null, the five hot kinds, no tag
_FIXED_NAMES = (None, "send", "deliver", "verify", "timer_set", "timer_ring",
                "")
NULL, SEND, DELIVER, VERIFY, _, TIMER_RING, NO_TAG = range(
    len(_FIXED_NAMES))
_FIXED_CODES = {name: code for code, name in enumerate(_FIXED_NAMES)}
_JSONL_CHUNK = 4096  # rows formatted and joined at a time
# a pending row, 32 bytes as in the columns, and per column (attribute, type
# code, offset and stride in items of that type)
_ROW = struct.Struct("=qqiiii")
_pack_row = _ROW.pack
_ROW_COLUMNS = (("time", "q", 0, 4), ("bytes_len", "q", 1, 4),
                ("kind", "i", 4, 8), ("src", "i", 5, 8), ("dst", "i", 6, 8),
                ("tag", "i", 7, 8))
_PENDING_BYTES = 1024 * _ROW.size


class _Side:
    """The event-specific fields of one (kind, key set): the rows it covers,
    ascending, and one column of values per key, keys sorted."""

    __slots__ = ("kind", "keys", "rows", "cols")

    def __init__(self, kind: int, keys: tuple):
        self.kind = kind
        self.keys = keys
        self.rows = array("q")
        self.cols = tuple([] for _ in keys)

    def extra(self, pos: int) -> dict:
        """The `extra` of its `pos`-th row, with JSON's lists for tuples."""
        return {key: list(v) if isinstance(v, tuple) else v
                for key, v in zip(self.keys, (c[pos] for c in self.cols))}


class Trace:
    """The trace as append-only columns: one row per record, no object per row.

    `time` and `bytes_len` are int64 arrays; `kind`, `src`, `dst` and `tag`
    are int32 codes into `names`, one interning table whose first codes are
    fixed (`_FIXED_NAMES`).  Event-specific fields live in side tables, one
    per (kind, key set).  The event loop writes send, deliver, verify and
    timer ring rows, base columns only, as one `_ROW` pack each into
    `pending`, which `flush` moves into the columns once it reaches
    `_PENDING_BYTES` and before every read.  Every other row is written,
    packed the same way, by `add`, or with others of one kind and source by
    `extend`, and has a side entry, even with no keys, so `select` finds
    every row of the kinds that `add` and `extend` write.  A run's side
    values are integers, None, tuples of integers, which the GC stops
    tracking at its first collection, and strings, each distinct one held
    once: `add` and `extend` intern it in `_strings`, a dict the GC never
    tracks.  A list read from a record is held as a tuple and read back as
    a list.

    Rows read back as `TraceEvent`s by iteration; the checker reads
    `select` (or `scan`, lazily), the cost report the base columns, and
    `jsonl` writes the JSON lines from the columns.
    """

    def __init__(self):
        self.time = array("q")
        self.kind = array("i")
        self.src = array("i")
        self.dst = array("i")
        self.bytes_len = array("q")
        self.tag = array("i")
        self.pending = bytearray()  # packed rows not yet in the columns
        self.names: list = list(_FIXED_NAMES)
        self._codes = _FIXED_CODES.copy()
        self._sides: list[_Side] = []
        self._side_of: dict[tuple, _Side] = {}  # (kind, *keys as given)
        self._strings: dict[str, str] = {}  # each string side value, once

    def __len__(self) -> int:
        return len(self.time) + len(self.pending) // _ROW.size

    def flush(self):
        """Move the pending rows into the columns, in C."""
        if not self.pending:
            return
        with memoryview(self.pending) as raw:
            for name, typecode, at, step in _ROW_COLUMNS:
                getattr(self, name).frombytes(
                    raw.cast(typecode)[at::step].tobytes())
        self.pending.clear()

    def code(self, name: str | None) -> int:
        """The code of `name`, interned on first use."""
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def find(self, name: str | None) -> int:
        """The code of `name`, or -1 if no row names it."""
        return self._codes.get(name, -1)

    def add(self, time: int, kind: str, src: int, dst: int, bytes_len: int,
            tag: int, extra: dict):
        """Append a row of kind name `kind` and its side entry, which holds
        `extra`."""
        side = self._side_of.get((kind, *extra)) or self._new_side(kind, extra)
        side.rows.append(len(self.time) + len(self.pending) // _ROW.size)
        strings = self._strings
        for key, col in zip(side.keys, side.cols):
            value = extra[key]
            col.append(strings.setdefault(value, value) if type(value) is str
                       else value)
        self.pending += _pack_row(time, bytes_len, side.kind, src, dst, tag)
        if len(self.pending) >= _PENDING_BYTES:
            self.flush()

    def extend(self, time: int, kind: str, src: int, columns: dict):
        """Append what one `add(time, kind, src, NULL, 0, NO_TAG, extra)`
        call per row would: row i's `extra` holds each key of `columns`
        with the i-th value of its list, and all the lists are as long."""
        k = len(next(iter(columns.values())))
        if not k:
            return
        side = (self._side_of.get((kind, *columns))
                or self._new_side(kind, columns))
        first = len(self.time) + len(self.pending) // _ROW.size
        side.rows.extend(range(first, first + k))
        strings = self._strings
        for key, col in zip(side.keys, side.cols):
            for value in columns[key]:
                col.append(strings.setdefault(value, value)
                           if type(value) is str else value)
        self.pending += _pack_row(time, 0, side.kind, src, NULL, NO_TAG) * k
        if len(self.pending) >= _PENDING_BYTES:
            self.flush()

    def _new_side(self, kind: str, given) -> _Side:
        for key in given:
            if key in _BASE_KEYS:
                raise ValueError(f"{kind} record names base field {key!r} "
                                 f"as an event-specific key")
        code = self.code(kind)
        keys = tuple(sorted(given))
        for side in self._sides:
            if side.kind == code and side.keys == keys:
                break
        else:
            side = _Side(code, keys)
            self._sides.append(side)
        self._side_of[(kind, *given)] = side
        return side

    def add_record(self, rec):
        """Append the row of a decoded record, the inverse of `to_json`.

        Raises ValueError for a record that is not an object, lacks an
        integer `time` or a string `kind`, has a base field of another type
        than `_BASE_TYPES` gives, or lacks a key `_EXTRA_KEYS` gives its kind
        or holds it with another type.
        """
        if not isinstance(rec, dict):
            raise ValueError("trace record is not an object")
        time, kind = rec.get("time"), rec.get("kind")
        if not _is_int(time):
            raise ValueError("trace record without an integer time")
        if not isinstance(kind, str):
            raise ValueError("trace record without a string kind")
        base = []
        for key, default, type_name in _BASE_TYPES:
            value = rec.get(key, default)
            if not _JSON_TYPES[type_name](value):
                raise ValueError(f"trace record whose {key!r} is not "
                                 f"{type_name}")
            base.append(value)
        for key, type_name in _EXTRA_KEYS.get(kind, ()):
            value = rec.get(key, _ABSENT)
            if not _JSON_TYPES[type_name](value):
                raise ValueError(
                    f"{kind} record without {key!r}" if value is _ABSENT
                    else f"{kind} record whose {key!r} is not {type_name}")
        src, dst, bytes_len, tag = base
        code = self.code
        self.add(time, kind, code(src), code(dst), bytes_len, code(tag),
                 {k: tuple(v) if type(v) is list else v
                  for k, v in rec.items() if k not in _BASE_KEYS})

    def __iter__(self):
        self.flush()
        names = self.names
        entries = heapq.merge(*(zip(side.rows, repeat(side), count())
                                for side in self._sides))
        entry = next(entries, None)
        for i in range(len(self.time)):
            if entry is not None and entry[0] == i:
                extra = entry[1].extra(entry[2])
                entry = next(entries, None)
            else:
                extra = {}
            yield TraceEvent(self.time[i], names[self.kind[i]],
                             names[self.src[i]], names[self.dst[i]],
                             self.bytes_len[i], names[self.tag[i]], extra)

    def select(self, kind: str) -> list[tuple]:
        """(row, src, then the value of each key `_EXTRA_KEYS` gives `kind`,
        in its order) of every row of `kind` that has a side entry, in row
        order; a key the row lacks reads None."""
        sides = self._side_rows(kind)
        out = list(chain.from_iterable(sides))
        if len(sides) > 1:
            out.sort(key=itemgetter(0))
        return out

    def scan(self, kind: str):
        """`select` lazily, so no list of the rows is built."""
        return heapq.merge(*self._side_rows(kind), key=itemgetter(0))

    def _side_rows(self, kind: str) -> list:
        """`select`'s rows of each side of `kind`, one iterator a side."""
        self.flush()
        code = self.find(kind)
        keys = [key for key, _ in _EXTRA_KEYS.get(kind, ())]
        src, names = self.src, self.names
        return [zip(side.rows, map(names.__getitem__, map(src.__getitem__,
                                                          side.rows)),
                    *(side.cols[side.keys.index(k)] if k in side.keys
                      else repeat(None) for k in keys))
                for side in self._sides if side.kind == code]

    def jsonl(self):
        """`TraceEvent.to_json` of every row, each line ending in a newline,
        yielded in chunks of `_JSONL_CHUNK` lines (one newline if no row).

        Each line is formatted from the columns by the generated writer of
        its key set (`_line_writer`), compiled once per key set and cached
        across traces: codes index the JSON texts of `names`, encoded once
        per call, and side values are JSON texts from `_json_column`.  No
        line outlives its chunk, so a writer holds one chunk at a time.
        """
        self.flush()
        names = ["null" if name is None else encode_basestring_ascii(name)
                 for name in self.names]
        columns = {key: getattr(self, key) for key in _BASE_KEYS}
        base_keys = tuple(sorted(_BASE_KEYS))
        base = _line_writer(base_keys)
        plans = []
        for side in self._sides:
            fields = {**columns, **dict(zip(side.keys, side.cols))}
            keys = tuple(sorted(fields))
            plans.append((side, _line_writer(keys), [fields[k] for k in keys]))
        n = len(self.time)
        if not n:
            yield "\n"
        for a in range(0, n, _JSONL_CHUNK):
            b = min(a + _JSONL_CHUNK, n)
            lines = base(names, *(columns[k][a:b] for k in base_keys))
            for side, write, cols in plans:
                lo = bisect_left(side.rows, a)
                hi = bisect_left(side.rows, b, lo)
                if lo == hi:
                    continue
                rows = side.rows[lo:hi]
                for row, line in zip(rows, write(names, *(
                        _json_column(col[lo:hi]) if type(col) is list
                        else map(col.__getitem__, rows) for col in cols))):
                    lines[row - a] = line
            lines.append("")
            yield "\n".join(lines)


def _line_source(keys: tuple) -> str:
    """The source of `write(N, c0, ...)`: the JSON line of each row of the
    columns c0, ... of `keys`, in order; a code column's value is written as
    its text in N, any other as it is.  A key enters the source only as its
    JSON text, braces doubled, inside the one string literal."""
    params = ", ".join(f"c{i}" for i in range(len(keys)))
    fields = ",".join(
        encode_basestring_ascii(key).replace("{", "{{").replace("}", "}}")
        + (f":{{N[v{i}]}}" if key in _CODE_KEYS else f":{{v{i}}}")
        for i, key in enumerate(keys))
    return (f"def write(N, {params}):\n"
            f"    return [f{'{{' + fields + '}}'!r} for "
            + "".join(f"v{i}, " for i in range(len(keys)))
            + f"in zip({params})]\n")


@lru_cache(maxsize=128)
def _line_writer(keys: tuple):
    """`_line_source(keys)`'s function, compiled once per key set."""
    names = {}
    exec(compile(_line_source(keys), "<trace line writer>", "exec"), names)
    return names["write"]


def _json_column(values: list):
    """Each of `values` as `_ENCODER` writes it inside a record.

    A column of strings, of integers or of pairs of integers is written by
    C functions alone (what the encoder calls for a string or an integer);
    any other goes through `_ENCODER` value by value.
    """
    types = set(map(type, values))
    if types == {str}:
        return map(encode_basestring_ascii, values)
    if types == {int}:
        return map(int.__repr__, values)
    if types == {tuple} and set(map(len, values)) == {2} and set(
            map(type, chain.from_iterable(values))) == {int}:
        return map("[%d,%d]".__mod__, values)
    return map(_ENCODER.encode, values)


def load_trace_file(path: str) -> Trace:
    """Read a UTF-8 JSONL trace; ValueError names the first bad line, or
    line 1 if the first record is not the scenario header."""
    trace = Trace()
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                line = line.decode("utf-8").strip()
                if line:
                    trace.add_record(parse_json(line))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
    header = next(trace.scan("scenario"), None)
    if header is None or header[0] != 0:
        raise ValueError("line 1: the first record is not a scenario header")
    return trace
