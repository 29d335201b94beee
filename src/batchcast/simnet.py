"""Deterministic discrete-event network with FIFO links and dual-mode timers.

Time is an integer tick count.  The event queue is a heap ordered by
(time, phase, dst, src, timer tag, sequence); message deliveries at a tick
dispatch before timer rings at the same tick, because a timer with timeout d
set at t rings *after* time t + d.  Links never drop messages; per ordered
pair, delivery order equals send order.

Each heap entry is flat: (key, timer tag bytes, sequence, event fields), with

    key = ((time * 2 + phase) * P + dst rank) * P + src rank

where P is the number of processes and a process's rank is its place in
(kind, ordinal) order: servers, then brokers, then clients.  Phase is 0 or 1
and ranks lie in [0, P), so comparing keys compares (time, phase, dst, src)
lexicographically, and one integer compare stands for four.  Ties on the key
fall to the timer tag's bytes (empty for a delivery) and then to the unique
sequence number.  `time` is the key floor-divided by 2 * P * P.

A constant delay policy delays each envelope 1 tick, but on overridden
links; a uniform one has the seeded scheduler draw each delay, with
`random.Random.randrange`'s own loop.  FIFO order is kept by clamping each
delivery at or after the previous one on its link; with all delays 1 the
clamp cannot bind and is skipped.  A timer rings its timeout after it is
set, or, under the scheduler timer policy, 1 to `TIMER_SKEW_MAX` ticks
after.  A fan-out is one scheduling call.
"""

from __future__ import annotations

import heapq
import json
import random
import re
import struct
from array import array
from binascii import a2b_hex
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, count, repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter

from . import crypto, wire
from .bits import DecodeError
from .procs import ProcessId, brokers, client, servers

GOOD_CASE = "good_case"
ADVERSARIAL = "adversarial"
MAX_EVENTS = 5_000_000  # dispatches a run may make before it must quiesce
TIMER_SKEW_MAX = 8  # a scheduler timer rings at most this long after it is set
# ticks a scenario may give: < 2^23 events (MAX_EVENTS) this far apart fit 2^63
TICK_BOUND = 1 << 32
# the most servers, brokers and clients a scenario may have
PROCESS_BOUNDS = {"servers": 1 << 8, "brokers": 1 << 8, "clients": 1 << 16}
PROCESS_LABEL = re.compile(r"([SBC])(0|[1-9][0-9]*)")  # a process label


def _known_labels(labels, counts: tuple) -> bool:
    """Whether each of `labels` names one of (servers, brokers, clients)."""
    return all(m is not None and int(m[2]) < counts["SBC".index(m[1])]
               for m in map(PROCESS_LABEL.fullmatch, labels))


@dataclass
class DelayPolicy:
    """Per-link delay selection.

    kind "constant": every delay is 1 tick.  kind "uniform": delays drawn
    from [min_delay, max_delay] by the seeded scheduler.  Overrides fix the
    delay of specific ordered links (labels like "B0->S3").
    """

    kind: str = "constant"
    min_delay: int = 1
    max_delay: int = 1
    overrides: dict = field(default_factory=dict)


def _uniform(rng: random.Random, lo: int, hi: int):
    """A function of an ignored argument drawing from [lo, hi] with the
    `getrandbits(k)` loop of `rng.randrange(lo, hi + 1)`: the same values,
    and `rng` left in the same state."""
    n = hi - lo + 1
    if n <= 0:
        raise ValueError(f"empty range [{lo}, {hi}]")
    k = n.bit_length()
    getrandbits = rng.getrandbits

    def draw(_=None):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return lo + r
    return draw


@dataclass
class Scenario:
    name: str
    n_servers: int
    fault_bound: int
    n_brokers: int
    n_clients: int
    synchrony: str = GOOD_CASE
    delay_policy: DelayPolicy = field(default_factory=DelayPolicy)
    timer_policy: str = "timeout"  # "timeout" | "scheduler" (adversarial only)
    fault_script: dict = field(default_factory=dict)  # label -> behavior spec
    seed: int = 0
    preload_directory: bool = True
    broadcasts: list = field(default_factory=list)  # per-client plans
    broker_order: dict = field(default_factory=dict)  # client ordinal -> order

    @property
    def payload_bits(self) -> int:
        """8 bits per byte of a broadcast's context and message; 64 if none."""
        return next((4 * (len(e["context"]) + len(e["message"]))
                     for e in self.broadcasts), 64)

    def validate(self) -> dict[int, list]:
        """Each client's broadcasts, {client: [(at, context, message)]}, hex
        decoded.  Raises ValueError naming the key of the first out-of-model
        value: where a scenario file takes an integer, only an int is."""
        for key, kind in (("delay_policy", DelayPolicy),
                          ("delay_policy.overrides", dict),
                          ("broadcasts", list), ("broker_order", dict),
                          ("fault_script", dict), ("preload_directory", bool)):
            if type(attrgetter(key)(self)) is not kind:
                raise ValueError(f"{key} must be a {kind.__name__}")
        for key in ("fault_script", "delay_policy.overrides"):
            if {*map(type, attrgetter(key)(self))} - {str}:
                raise ValueError(f"{key} keys must be strings")
        dp, bs, order = self.delay_policy, self.broadcasts, self.broker_order
        name = self.name
        if not isinstance(name, str) or "/" in name or "\0" in name:
            raise ValueError("name must be a string without '/' or NUL")
        if not name:
            raise ValueError("name must not be empty")
        f = self.fault_bound
        if type(f) is not int or f < 0 or self.n_servers != 3 * f + 1:
            raise ValueError("fault_bound must be at least 0, servers 3f + 1")
        counts = (self.n_servers, self.n_brokers, self.n_clients)
        for (key, bound), n in zip(PROCESS_BOUNDS.items(), counts):
            if type(n) is not int or not 1 <= n <= bound:
                raise ValueError(f"{key} must be an integer of at least 1 and "
                                 f"at most {bound}")
        for key, value, allowed in (
                ("synchrony", self.synchrony, (GOOD_CASE, ADVERSARIAL)),
                ("timer_policy", self.timer_policy, ("timeout", "scheduler")),
                ("delay_policy.kind", dp.kind, ("constant", "uniform"))):
            if value not in allowed:
                raise ValueError(f"{key} must be one of {', '.join(allowed)}")
        delays = {"min_delay": dp.min_delay, "max_delay": dp.max_delay}
        delays.update((f"overrides.{k}", d) for k, d in dp.overrides.items())
        for key, delay in delays.items():
            if type(delay) is not int or not 1 <= delay <= TICK_BOUND:
                raise ValueError(f"delay_policy.{key} not in 1..{TICK_BOUND}")
        if type(self.seed) is not int:
            raise ValueError("seed must be an int")
        if dp.min_delay > dp.max_delay or (dp.kind == "constant"
                                           and dp.max_delay != 1):
            raise ValueError("delay_policy needs min_delay <= max_delay, 1 if "
                             "constant")
        if self.synchrony == GOOD_CASE and (dp != DelayPolicy()
                                            or self.timer_policy != "timeout"):
            raise ValueError("good_case takes the default delay_policy and "
                             "timer_policy")
        labels = sorted(self.fault_script)  # parsed, so no label set is built
        if not _known_labels(labels, counts):
            raise ValueError(f"a fault_script label of {labels} is no process")
        if not all(len(e) == 2 and _known_labels(e, counts)
                   for e in (link.split("->") for link in dp.overrides)):
            raise ValueError("a delay_policy.overrides link of "
                             f"{sorted(dp.overrides)} joins no two processes")
        if sum(label[0] == "S" for label in labels) > self.fault_bound:
            raise ValueError(f"fault_script: over f = {self.fault_bound} "
                             "faulty servers")
        if sum(label[0] == "B" for label in labels) >= self.n_brokers:
            raise ValueError("brokers must be more than the faulty brokers")
        for j, order_j in order.items():
            if type(j) is not int or not 0 <= j < self.n_clients:
                raise ValueError("broker_order names a missing client")
            if (type(order_j) is not list or {*map(type, order_j)} - {int}
                    or sorted(order_j) != [*range(self.n_brokers)]):
                raise ValueError(f"broker_order.{j} must list each broker "
                                 f"0..{self.n_brokers - 1} once")
        plans: dict[int, list] = {}
        for i, e in enumerate(bs):
            try:
                j, at, c, m = e["client"], e["at"], e["context"], e["message"]
            except (KeyError, TypeError):
                raise ValueError(f"broadcasts[{i}] must be an object with "
                                 "client, context, message and at") from None
            if type(at) is not int or not 0 <= at <= TICK_BOUND:
                raise ValueError(f"broadcasts[{i}].at not in 0..{TICK_BOUND}")
            if type(j) is not int or not 0 <= j < self.n_clients:
                raise ValueError("a broadcasts client is not < "
                                 f"{self.n_clients}")
            try:
                plan = (at, a2b_hex(c), a2b_hex(m))
                if not type(c) is type(m) is str:
                    raise TypeError  # bytes, which a2b_hex takes as well
            except (TypeError, ValueError):
                raise ValueError(f"broadcasts[{i}]: context and message must "
                                 "be hex") from None
            if i == 0:
                digits = len(c) + len(m)
            elif len(c) + len(m) != digits:
                raise ValueError(f"broadcasts[{i}]: context and message must "
                                 f"be {self.payload_bits} bits together, as "
                                 "in broadcasts[0]")
            plans.setdefault(j, []).append(plan)
        if sum(len({c for _, c, _ in p}) for p in plans.values()) < len(bs):
            raise ValueError("broadcasts repeat a client and context")
        return plans

    def processes(self) -> list[ProcessId]:
        return [*servers(self.n_servers), *brokers(self.n_brokers),
                *map(client, range(self.n_clients))]


_BASE_KEYS = ("time", "kind", "src", "dst", "bytes_len", "tag")
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
_JSON_TYPES.update((f"a count of at most {bound}",
                    lambda v, bound=bound: _is_int(v) and 0 <= v <= bound)
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
    "scenario": tuple((key, f"a count of at most {bound}")
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

    def record(self) -> dict:
        rec = {"time": self.time, "kind": self.kind, "src": self.src,
               "dst": self.dst, "bytes_len": self.bytes_len, "tag": self.tag}
        rec.update(self.extra)
        return rec

    def to_json(self) -> str:
        return _ENCODER.encode(self.record())


def parse_json(text: str):
    """`json.loads`, where nesting past the recursion limit is a ValueError."""
    try:
        return json.loads(text)
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
    packed the same way, by `add` and has a side entry, even with no keys,
    so `select` finds every row of the kinds that `add` writes.  A run's
    side values are integers, None, tuples of integers, which the GC stops
    tracking at its first collection, and strings, each distinct one held
    once: `add` interns it in `_strings`, a dict the GC never tracks.  A
    list read from a record is held as a tuple and read back as a list.

    Rows read back as `TraceEvent`s by iteration; the checker and the cost
    ledger read `select` (or `scan`, lazily) and the base columns, and
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

    @classmethod
    def of(cls, records) -> "Trace":
        """`records` as a Trace: a Trace as it is; any other iterable of
        records or `TraceEvent`s written through `add_record`."""
        if isinstance(records, Trace):
            return records
        trace = cls()
        for rec in records:
            trace.add_record(rec.record() if isinstance(rec, TraceEvent)
                             else rec)
        return trace

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

    def _new_side(self, kind: str, given) -> _Side:
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

        Each line is formatted from the columns with one %-template per key
        set; names, keys and string values go through
        `encode_basestring_ascii`, other values through `_json_column`.  No
        line outlives its chunk, so a writer holds one chunk at a time.
        """
        self.flush()
        text = ["null" if name is None else encode_basestring_ascii(name)
                for name in self.names].__getitem__
        ints = {"time": self.time, "bytes_len": self.bytes_len}
        codes = {"kind": self.kind, "src": self.src, "dst": self.dst,
                 "tag": self.tag}
        base_keys = sorted(_BASE_KEYS)
        base = _template(base_keys)
        plans = []
        for side in self._sides:
            keys = sorted(_BASE_KEYS + side.keys)
            plans.append((side, _template(keys),
                          [(k, side.keys.index(k) if k in side.keys else None)
                           for k in keys]))
        n = len(self.time)
        if not n:
            yield "\n"
        for a in range(0, n, _JSONL_CHUNK):
            b = min(a + _JSONL_CHUNK, n)
            lines = list(map(base.__mod__, zip(*(
                ints[k][a:b] if k in ints else map(text, codes[k][a:b])
                for k in base_keys))))
            for side, template, fields in plans:
                lo = bisect_left(side.rows, a)
                hi = bisect_left(side.rows, b, lo)
                if lo == hi:
                    continue
                rows = side.rows[lo:hi]
                args = []
                for key, j in fields:
                    if j is not None:
                        args.append(_json_column(side.cols[j][lo:hi]))
                    elif key in ints:
                        args.append(map(ints[key].__getitem__, rows))
                    else:
                        args.append(map(text, map(codes[key].__getitem__,
                                                  rows)))
                for row, line in zip(rows, map(template.__mod__, zip(*args))):
                    lines[row - a] = line
            lines.append("")
            yield "\n".join(lines)


def _template(keys) -> str:
    """A %-template of one JSON object with `keys` in order, %s per value."""
    return "{" + ",".join(encode_basestring_ascii(key).replace("%", "%%")
                          + ":%s" for key in keys) + "}"


def _json_column(values: list):
    """Each of `values` as `_ENCODER` writes it inside a record.

    A column of strings, of integers or of tuples of integers is written by
    C functions alone (what the encoder calls for a string or an integer);
    any other goes through `_ENCODER` value by value.
    """
    types = set(map(type, values))
    if types == {str}:
        return map(encode_basestring_ascii, values)
    if types == {int}:
        return map(int.__repr__, values)
    if types == {tuple} and set(map(type, chain.from_iterable(values))) == {
            int}:
        return map("[%s]".__mod__,
                   map(",".join, map(partial(map, int.__repr__), values)))
    return map(_ENCODER.encode, values)


class Context:
    """Per-process handle into the simulation: sending, timers, crypto.

    The crypto facade is bound to the owning process: sign/multisign always
    use the owner's key, so a Byzantine behavior cannot mint signatures for
    keys it does not hold.  `machine` is the process's machine (None for a
    context that only reaches the crypto facade), and `rank` its place in an
    event's key (see the module docstring).
    """

    def __init__(self, sim: "Simulation", pid: ProcessId,
                 machine: "Machine | None" = None):
        self.sim = sim
        self.pid = pid
        self.machine = machine
        self.label = pid.label
        self.code = sim.trace.code(self.label)
        self.rank = sim._rank_offsets[pid.kind] + pid.ordinal

    @property
    def now(self) -> int:
        return self.sim.now

    def send(self, dst: ProcessId, msg):
        self.send_all((dst,), msg)

    def send_all(self, dsts, msg):
        """Send `msg` to each of the sequence `dsts` in one scheduling call.
        Each copy is serialized: all but the first are hits in
        `wire.serialize`'s memo, and its wrappers see one call per copy."""
        sim = self.sim
        serialize, wire_ctx = wire.serialize, sim.wire_ctx
        data = None
        for _ in dsts:
            data = serialize(wire_ctx, msg)
        if data is not None:
            tag = sim._tag_codes.get(type(msg)) or sim._tag_code(msg)
            sim._schedule_send(self, dsts, data, tag)

    def set_timer(self, tag: tuple, timeout: int):
        self.sim._schedule_timer(self, tag, timeout)

    def emit(self, kind: str, **extra):
        self.sim.trace.add(self.sim.now, kind, self.code, NULL, 0, NO_TAG,
                           extra)

    # -- crypto facade -------------------------------------------------------

    def keycard(self, pid: ProcessId | None = None) -> bytes:
        return self.sim.oracle.keycard(pid if pid is not None else self.pid)

    def owner(self, keycard: bytes) -> ProcessId | None:
        return self.sim.oracle.owner(keycard)

    def sign(self, statement: bytes) -> bytes:
        return self.sim.oracle.sign(self.pid, statement)

    def multisign(self, statement: bytes) -> bytes:
        return self.sim.oracle.multisign(self.pid, statement)

    def aggregate(self, msigs) -> bytes:
        return self.sim.oracle.aggregate(msigs)

    def certify(self, shards: dict) -> crypto.Certificate:
        return self.sim.oracle.certify(shards)

    def _count(self, verb: str):
        trace = self.sim.trace
        trace.pending += _pack_row(self.sim.now, 0, VERIFY, self.code, NULL,
                                   trace.code(verb))

    def verify(self, keycard: bytes, statement: bytes, sig: bytes) -> bool:
        self._count("verify")
        return self.sim.oracle.verify(self.pid, keycard, statement, sig)

    def verify_aggregate(self, keycards, statement: bytes, msig: bytes) -> bool:
        self._count("verify_aggregate")
        return self.sim.oracle.verify_aggregate(self.pid, keycards, statement,
                                                msig)

    def verify_certificate(self, cert, statement: bytes, threshold: int) -> bool:
        self._count("verify_certificate")
        return self.sim.oracle.verify_certificate(
            self.pid, cert, statement, threshold, self.sim.scenario.n_servers)

    def verify_plurality(self, cert, statement: bytes) -> bool:
        return self.verify_certificate(cert, statement,
                                       self.sim.scenario.fault_bound + 1)

    def verify_quorum(self, cert, statement: bytes) -> bool:
        return self.verify_certificate(cert, statement,
                                       2 * self.sim.scenario.fault_bound + 1)


class EventBudgetExhausted(RuntimeError):
    """A run dispatched `MAX_EVENTS` events and still had events queued."""


class Machine:
    """Pure event handler: override the on_* hooks."""

    def on_start(self, ctx: Context):
        pass

    def on_message(self, ctx: Context, src: ProcessId, msg):
        pass

    def on_timer(self, ctx: Context, tag: tuple):
        pass


_PHASE_RING = 1  # a delivery's phase is 0
_UNDECODED = object()     # in-flight cell: no copy delivered yet
_UNDECODABLE = object()   # in-flight cell: the bytes raised DecodeError


class Simulation:
    """The event loop over one scenario's machines.

    The scenario must pass `Scenario.validate`: delays and timers follow
    its policies, whatever its synchrony (`build_simulation` validates).

    Every copy of a byte string in flight shares one decode: `_in_flight`
    maps the bytes to a cell [decoded message, deliveries still queued], the
    first delivery decodes and later ones reuse the result.  Sharing is sound
    because `wire.deserialize` is a pure function of the per-simulation
    `WireContext` and the bytes, and a decoded message is deeply immutable.
    A cell is dropped with its last delivery, so the map is empty at
    quiescence.

    A queued event is (key, timer tag bytes, sequence, src context, dst
    context, bytes or timer tag, trace tag code); a timer's src and dst are
    its owner.  Each context carries its machine, so a dispatch looks the
    hook up on the machine itself.
    """

    def __init__(self, scenario: Scenario, machines: dict[ProcessId, Machine],
                 oracle: crypto.Oracle | None = None):
        s = scenario
        self.scenario = scenario
        self.machines = machines
        self.oracle = oracle or crypto.Oracle(s.processes())
        self.wire_ctx = wire.WireContext(s.n_servers)
        self.rng = random.Random(s.seed)
        self.now = 0
        self.trace = Trace()
        self._queue: list = []
        self._seq = 0
        counts = (s.n_servers, s.n_brokers, s.n_clients)
        self._rank_offsets = (0, counts[0], counts[0] + counts[1])
        self._n = n = sum(counts)
        self._per_phase = n * n  # key units per phase of a tick
        self._counts = counts
        self._link_last: dict[int, int] = {}  # src rank * P + dst rank -> tick
        self._tag_codes: dict[type, int] = {}  # message class -> tag code
        # each process's context by rank; None where it has no machine
        self._by_rank: list = [None] * n
        for pid, machine in machines.items():
            if not 0 <= pid.ordinal < counts[pid.kind]:
                raise ValueError(f"the scenario counts no process {pid!r}")
            ctx = Context(self, pid, machine)
            self._by_rank[ctx.rank] = ctx
        # `servers(n)`, the fan-out to every server, checked once if it can be
        self._server_contexts = self._by_rank[:s.n_servers]
        self._servers = (None if None in self._server_contexts
                         else servers(s.n_servers))
        self._draw_delay = self._resolve(s.delay_policy)
        self._draw_skew = (None if s.timer_policy == "timeout"
                           else _uniform(self.rng, 1, TIMER_SKEW_MAX))
        self._in_flight: dict[bytes, list] = {}
        self._dispatched = 0

    def _resolve(self, policy: DelayPolicy):
        """`policy` as a function from a link, src rank * P + dst rank, to
        its next delay, or None if all are 1; unmatched overrides drop."""
        rank = {ctx.label: ctx.rank for ctx in self._by_rank
                if ctx is not None} if policy.overrides else {}
        fixed = {}
        for link, delay in policy.overrides.items():
            src, _, dst = link.partition("->")
            if src in rank and dst in rank:
                fixed[rank[src] * self._n + rank[dst]] = delay
        draw = (_uniform(self.rng, policy.min_delay, policy.max_delay)
                if policy.kind == "uniform" else None)
        if fixed:  # every override is at least 1
            return lambda link: fixed.get(link) or (draw() if draw else 1)
        return draw

    def _tag_code(self, msg) -> int:
        """The trace tag code of `msg`'s class, interned on first use."""
        cls = type(msg)
        code = self._tag_codes[cls] = self.trace.code(cls.__name__)
        return code

    # -- scheduling ----------------------------------------------------------

    def _schedule_send(self, src: Context, dsts, data: bytes, tag: int):
        """Queue `data`, of trace tag code `tag`, to each of `dsts` in turn;
        ValueError, and none queued, if one is not a process with a machine."""
        if dsts is self._servers:
            tos = self._server_contexts
        else:
            counts, offsets = self._counts, self._rank_offsets
            tos = []
            for dst in dsts:
                to = (self._by_rank[offsets[dst.kind] + dst.ordinal]
                      if type(dst) is ProcessId and 0 <= dst.kind < 3
                      and 0 <= dst.ordinal < counts[dst.kind] else None)
                if to is None:
                    raise ValueError(f"unknown destination {dst!r}")
                tos.append(to)
        now, n, draw = self.now, self._n, self._draw_delay
        code, rank, size = src.code, src.rank, len(data)
        rows, queue, seq = self.trace.pending, self._queue, self._seq
        for to in tos:
            if draw is None:
                deliver = now + 1
            else:
                link = rank * n + to.rank
                delay = draw(link)
                deliver = now + delay if delay > 1 else now + 1
                last = self._link_last.get(link, 0)
                if deliver < last:
                    deliver = last
                self._link_last[link] = deliver
            seq += 1
            rows += _pack_row(now, size, SEND, code, to.code, tag)
            heapq.heappush(queue, ((2 * deliver * n + to.rank) * n + rank,
                                   b"", seq, src, to, data, tag))
        self._seq = seq
        cell = self._in_flight.get(data)
        if cell is None:
            self._in_flight[data] = [_UNDECODED, len(tos)]
        else:
            cell[1] += len(tos)

    def _schedule_timer(self, owner: Context, tag: tuple, timeout: int):
        now, n = self.now, self._n
        ring = now + (timeout if self._draw_skew is None
                      else self._draw_skew())
        self._seq = seq = self._seq + 1
        tag_code = self.trace.code(_tag_label(tag))
        self.trace.add(now, "timer_set", owner.code, owner.code, 0, tag_code,
                       {"ring": ring})
        heapq.heappush(self._queue, (
            ((2 * ring + _PHASE_RING) * n + owner.rank) * n + owner.rank,
            repr(tag).encode(), seq, owner, owner, tag, tag_code))

    # -- run loop ------------------------------------------------------------

    def start(self):
        trace = self.trace
        trace.add(0, "scenario", NULL, NULL, 0, NO_TAG, {
            "name": self.scenario.name,
            "servers": self.scenario.n_servers,
            "brokers": self.scenario.n_brokers,
            "clients": self.scenario.n_clients,
            "f": self.scenario.fault_bound,
            "seed": self.scenario.seed,
            "payload_bits": self.scenario.payload_bits,
            "synchrony": self.scenario.synchrony,
        })
        for label in sorted(self.scenario.fault_script):
            trace.add(0, "byzantine", trace.code(label), NULL, 0, NO_TAG, {})
        for ctx in self._by_rank:
            if ctx is not None:
                ctx.machine.on_start(ctx)

    def step(self):
        key, _, _, src, dst, item, tag = heapq.heappop(self._queue)
        tick = key // self._per_phase  # 2 * time + phase
        self.now = now = tick >> 1
        self._dispatched += 1
        rows = self.trace.pending
        if len(rows) >= _PENDING_BYTES:
            self.trace.flush()
        if tick & 1:
            rows += _pack_row(now, 0, TIMER_RING, dst.code, dst.code, tag)
            dst.machine.on_timer(dst, item)
            return
        rows += _pack_row(now, len(item), DELIVER, src.code, dst.code, tag)
        cell = self._in_flight[item]
        msg = cell[0]
        if msg is _UNDECODED:
            try:
                msg = wire.deserialize(self.wire_ctx, item)
            except DecodeError:
                msg = _UNDECODABLE
            cell[0] = msg
        cell[1] -= 1
        if not cell[1]:
            del self._in_flight[item]
        if msg is not _UNDECODABLE:
            dst.machine.on_message(dst, src.pid, msg)

    def run_to_quiescence(self):
        if not self.trace:
            self.start()
        while self._queue:
            if self._dispatched >= MAX_EVENTS:
                raise EventBudgetExhausted(
                    f"no quiescence after {MAX_EVENTS} events")
            self.step()
        self.trace.flush()
        return self.trace

    def trace_jsonl(self) -> str:
        return "".join(self.trace.jsonl())


def _tag_label(tag: tuple) -> str:
    return tag[0] if isinstance(tag, tuple) and tag else str(tag)
