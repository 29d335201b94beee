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

Good-case mode: every link delay is exactly 1 tick and timers honor their
timeouts.  Adversarial mode: the seeded scheduler picks per-envelope delays
(bounded by a horizon so runs terminate) and may disregard timer timeouts;
FIFO order is preserved by clamping each delivery at or after the previous
one on the same link.  With delays all 1, the clamp cannot bind, so the good
case skips it.
"""

from __future__ import annotations

import heapq
import json
import random
import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, count, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from . import crypto, wire
from .bits import DecodeError
from .procs import ProcessId, brokers, client, servers

GOOD_CASE = "good_case"
ADVERSARIAL = "adversarial"
SYNCHRONY = (GOOD_CASE, ADVERSARIAL)
TIMER_POLICIES = ("timeout", "scheduler")
DELAY_KINDS = ("constant", "uniform")
MAX_EVENTS = 5_000_000  # dispatches a run may make before it must quiesce
PROCESS_LABEL = re.compile(r"([SBC])(0|[1-9][0-9]*)")  # a process label


def _known_labels(labels, counts: tuple) -> bool:
    """Whether each of `labels` names one of (servers, brokers, clients)."""
    return all(m is not None and int(m[2]) < counts["SBC".index(m[1])]
               for m in map(PROCESS_LABEL.fullmatch, labels))


@dataclass
class DelayPolicy:
    """Per-link delay selection.

    kind "constant": every delay is `value` ticks.  kind "uniform": delays
    drawn from [min_delay, max_delay] by the seeded scheduler.  Overrides fix
    the delay of specific ordered links (labels like "B0->S3").
    """

    kind: str = "constant"
    value: int = 1
    min_delay: int = 1
    max_delay: int = 1
    overrides: dict = field(default_factory=dict)

    def delay(self, rng: random.Random, src: str, dst: str) -> int:
        """The delay of one envelope from label `src` to label `dst`."""
        if self.overrides:
            key = f"{src}->{dst}"
            if key in self.overrides:
                return self.overrides[key]
        if self.kind == "constant":
            return self.value
        return rng.randrange(self.min_delay, self.max_delay + 1)


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
    timer_skew_max: int = 8
    fault_script: dict = field(default_factory=dict)  # label -> behavior spec
    seed: int = 0
    batching_window: int = 0
    preload_directory: bool = True
    broadcasts: list = field(default_factory=list)  # per-client plans
    broker_order: dict = field(default_factory=dict)  # client ordinal -> order
    payload_bits: int = 64

    def validate(self):
        """Raises ValueError naming the key of the first failed check that
        spans keys.  Labels are parsed, so no label set is built."""
        dp = self.delay_policy
        counts = (self.n_servers, self.n_brokers, self.n_clients)
        links = [link.split("->") for link in dp.overrides]
        for ok, problem in (
                (self.n_servers == 3 * self.fault_bound + 1,
                 "server count must be 3f + 1"),
                (self.synchrony in SYNCHRONY, "unknown synchrony"),
                (self.timer_policy in TIMER_POLICIES, "unknown timer_policy"),
                (dp.kind in DELAY_KINDS, "unknown delay_policy.kind"),
                (1 <= dp.min_delay <= dp.max_delay,
                 "delay_policy needs 1 <= min_delay <= max_delay"),
                (_known_labels(self.fault_script, counts),
                 f"a fault_script label of {sorted(self.fault_script)} "
                 "names no process"),
                (all(len(e) == 2 and _known_labels(e, counts) for e in links),
                 f"a delay_policy.overrides link of {sorted(dp.overrides)} "
                 "does not join two processes"),
                (sum(label.startswith("B") for label in self.fault_script)
                 < self.n_brokers, "at least one broker must be correct"),
                (all(0 <= e["client"] < self.n_clients
                     for e in self.broadcasts),
                 f"a broadcasts client is not below {self.n_clients}"),
                (all(0 <= j < self.n_clients for j in self.broker_order)
                 and all(0 <= b < self.n_brokers for b in chain.from_iterable(
                     self.broker_order.values())),
                 "broker_order names a client or broker that does not exist")):
            if not ok:
                raise ValueError(problem)

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
# the base fields with their defaults and types
_BASE_TYPES = (("src", None, "a string or null"),
               ("dst", None, "a string or null"),
               ("bytes_len", 0, "a count"),
               ("tag", "", "a string"))
# per record kind, the event-specific keys the trace checker reads and their
# JSON types
_EXTRA_KEYS = {
    "scenario": (("servers", "an integer"), ("brokers", "an integer"),
                 ("clients", "an integer")),
    "broadcast": (("context", "a string"), ("message", "a string")),
    "app_deliver": (("client", "a string"), ("context", "a string"),
                    ("message", "a string")),
    "dir_import": (("id", "a pair of integers"), ("keycard", "a string"),
                   ("cert", "a string, null or absent")),
    "dir_import_rejected": (("id", "a pair of integers"),
                            ("keycard", "a string"),
                            ("cert", "a string, null or absent")),
    "assigner_record": (("keycard", "a string"), ("assigner", "an integer")),
    "fb_deliver": (("origin", "an integer"), ("seq", "an integer"),
                   ("payload", "a string")),
}
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


@dataclass(slots=True)
class TraceEvent:
    """One trace record: six base fields, event-specific keys in `extra`.

    This is the row form of a `Trace` and the input form of records read
    from files or forged; JSON is written by `to_json` and read back by
    `from_record`.
    """

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

    @classmethod
    def from_record(cls, rec) -> "TraceEvent":
        """The inverse of `to_json` on a decoded record.

        Raises ValueError for a record that is not an object, lacks an
        integer `time` or a string `kind`, has a base field of another type
        than `_BASE_TYPES` gives, or lacks a key `_EXTRA_KEYS` gives its kind
        or holds it with another type.
        """
        if not isinstance(rec, dict):
            raise ValueError("trace record is not an object")
        if not _is_int(rec.get("time")):
            raise ValueError("trace record without an integer time")
        kind = rec.get("kind")
        if not isinstance(kind, str):
            raise ValueError("trace record without a string kind")
        base = {}
        for key, default, type_name in _BASE_TYPES:
            base[key] = rec.get(key, default)
            if not _JSON_TYPES[type_name](base[key]):
                raise ValueError(f"trace record whose {key!r} is not "
                                 f"{type_name}")
        extra = {k: v for k, v in rec.items() if k not in _BASE_KEYS}
        for key, type_name in _EXTRA_KEYS.get(kind, ()):
            value = extra.get(key, _ABSENT)
            if not _JSON_TYPES[type_name](value):
                raise ValueError(
                    f"{kind} record without {key!r}" if value is _ABSENT
                    else f"{kind} record whose {key!r} is not {type_name}")
        return cls(rec["time"], kind, extra=extra, **base)


# codes every store gives the same names: null, the five hot kinds, no tag
_FIXED_NAMES = (None, "send", "deliver", "verify", "timer_set", "timer_ring",
                "")
NULL, SEND, DELIVER, VERIFY, TIMER_SET, TIMER_RING, NO_TAG = range(
    len(_FIXED_NAMES))
_FIXED_CODES = {name: code for code, name in enumerate(_FIXED_NAMES)}
_JSONL_CHUNK = 4096  # rows formatted and joined at a time


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
    timer ring rows with `row`, base columns only; every other row is
    written by `add` and has a side entry, even with no keys, so `select`
    finds every row of the kinds that `add` writes.  A run's side values are
    strings, integers, None and tuples of integers, which the GC stops
    tracking at its first collection; a list read from a record is held as
    a tuple and read back as a list.

    Rows read back as `TraceEvent`s (iteration, indexing); the checker and
    the cost ledger read `select` and the base columns, and `jsonl` writes
    the JSON lines from the columns.
    """

    def __init__(self):
        self.time = array("q")
        self.kind = array("i")
        self.src = array("i")
        self.dst = array("i")
        self.bytes_len = array("q")
        self.tag = array("i")
        self.names: list = list(_FIXED_NAMES)
        self._codes = _FIXED_CODES.copy()
        self._sides: list[_Side] = []
        self._side_of: dict[tuple, _Side] = {}  # (kind, *keys as given)

    @classmethod
    def of(cls, records) -> "Trace":
        """`records` as a Trace: a Trace as it is; any other iterable of
        records or `TraceEvent`s appended through `TraceEvent.from_record`."""
        if isinstance(records, Trace):
            return records
        trace = cls()
        for rec in records:
            if isinstance(rec, TraceEvent):
                rec = rec.record()
            trace.append(TraceEvent.from_record(rec))
        return trace

    def __len__(self) -> int:
        return len(self.time)

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

    def row(self, time: int, kind: int, src: int, dst: int, bytes_len: int,
            tag: int):
        """Append a row of base fields, names given as codes."""
        self.time.append(time)
        self.kind.append(kind)
        self.src.append(src)
        self.dst.append(dst)
        self.bytes_len.append(bytes_len)
        self.tag.append(tag)

    def add(self, time: int, kind: int, src: int, dst: int, bytes_len: int,
            tag: int, extra: dict):
        """Append a row and its side entry, which holds `extra`."""
        side = self._side_of.get((kind, *extra))
        if side is None:
            side = self._new_side(kind, tuple(extra))
        side.rows.append(len(self.time))
        for key, col in zip(side.keys, side.cols):
            col.append(extra[key])
        self.row(time, kind, src, dst, bytes_len, tag)

    def _new_side(self, kind: int, given: tuple) -> _Side:
        keys = tuple(sorted(given))
        for side in self._sides:
            if side.kind == kind and side.keys == keys:
                break
        else:
            side = _Side(kind, keys)
            self._sides.append(side)
        self._side_of[(kind, *given)] = side
        return side

    def append(self, ev: TraceEvent):
        """Append a row that `TraceEvent.from_record` accepts."""
        code = self.code
        self.add(ev.time, code(ev.kind), code(ev.src), code(ev.dst),
                 ev.bytes_len, code(ev.tag),
                 {k: tuple(v) if type(v) is list else v
                  for k, v in ev.extra.items()})

    def _event(self, i: int, extra: dict) -> TraceEvent:
        names = self.names
        return TraceEvent(self.time[i], names[self.kind[i]],
                          names[self.src[i]], names[self.dst[i]],
                          self.bytes_len[i], names[self.tag[i]], extra)

    def __iter__(self):
        entries = heapq.merge(*(zip(side.rows, repeat(side), count())
                                for side in self._sides))
        entry = next(entries, None)
        for i in range(len(self.time)):
            if entry is not None and entry[0] == i:
                extra = entry[1].extra(entry[2])
                entry = next(entries, None)
            else:
                extra = {}
            yield self._event(i, extra)

    def __getitem__(self, i: int) -> TraceEvent:
        i = range(len(self.time))[i]
        for side in self._sides:
            pos = bisect_left(side.rows, i)
            if pos < len(side.rows) and side.rows[pos] == i:
                return self._event(i, side.extra(pos))
        return self._event(i, {})

    def select(self, kind: str, keys: tuple = ()) -> list[tuple]:
        """(row, src, the value of each key) of every row of `kind` that has
        a side entry, in row order; a key the row lacks reads None."""
        code = self.find(kind)
        src, names = self.src, self.names
        out: list = []
        sides = [side for side in self._sides if side.kind == code]
        for side in sides:
            cols = [side.cols[side.keys.index(k)] if k in side.keys
                    else repeat(None) for k in keys]
            out.extend(zip(side.rows,
                           map(names.__getitem__, map(src.__getitem__,
                                                      side.rows)),
                           *cols))
        if len(sides) > 1:
            out.sort(key=itemgetter(0))
        return out

    def jsonl(self) -> str:
        """`TraceEvent.to_json` of every row, each line ending in a newline.

        Each line is formatted from the columns with one %-template per key
        set; names, keys and string values go through
        `encode_basestring_ascii`, other values through `_json_column`.  The
        rows are joined in chunks of `_JSONL_CHUNK`, so no line outlives its
        chunk.
        """
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
        chunks = []
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
            chunks.append("\n".join(lines))
        chunks.append("")
        return "\n".join(chunks) if n else "\n"


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
        sim = self.sim
        data = wire.serialize(sim.wire_ctx, msg)
        tag = sim._tag_codes.get(type(msg))
        if tag is None:
            tag = sim._tag_codes[type(msg)] = sim.trace.code(
                wire.tag_name(msg))
        sim._schedule_send(self, dst, data, tag)

    def set_timer(self, tag: tuple, timeout: int):
        self.sim._schedule_timer(self, tag, timeout)

    def emit(self, kind: str, **extra):
        trace = self.sim.trace
        trace.add(self.sim.now, trace.code(kind), self.code, NULL, 0, NO_TAG,
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
        trace.row(self.sim.now, VERIFY, self.code, NULL, 0, trace.code(verb))

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
        for pid in machines:
            if not 0 <= pid.ordinal < counts[pid.kind]:
                raise ValueError(f"the scenario counts no process {pid!r}")
        self._good_case = s.synchrony == GOOD_CASE
        self._timeouts_honored = self._good_case or s.timer_policy == "timeout"
        self._delay = s.delay_policy.delay
        self._link_last: dict[int, int] = {}  # src rank * P + dst rank -> tick
        self._tag_codes: dict[type, int] = {}  # message class -> tag code
        self._counts = counts
        # each process's context by rank; None where it has no machine
        self._by_rank: list = [None] * n
        for pid, machine in machines.items():
            ctx = Context(self, pid, machine)
            self._by_rank[ctx.rank] = ctx
        self._in_flight: dict[bytes, list] = {}
        self._dispatched = 0

    # -- scheduling ----------------------------------------------------------

    def _schedule_send(self, src: Context, dst: ProcessId, data: bytes,
                       tag: int):
        """Queue the delivery of `data`, whose trace tag code is `tag`."""
        counts = self._counts
        if (type(dst) is ProcessId and 0 <= dst.kind < len(counts)
                and 0 <= dst.ordinal < counts[dst.kind]):
            to = self._by_rank[self._rank_offsets[dst.kind] + dst.ordinal]
        else:
            to = None
        if to is None:
            raise ValueError(f"unknown destination {dst!r}")
        now, n = self.now, self._n
        if self._good_case:
            deliver = now + 1
        else:
            delay = self._delay(self.rng, src.label, to.label)
            deliver = now + delay if delay > 1 else now + 1
            link = src.rank * n + to.rank
            last = self._link_last.get(link, 0)
            if deliver < last:
                deliver = last
            self._link_last[link] = deliver
        self._seq = seq = self._seq + 1
        self.trace.row(now, SEND, src.code, to.code, len(data), tag)
        cell = self._in_flight.get(data)
        if cell is None:
            self._in_flight[data] = [_UNDECODED, 1]
        else:
            cell[1] += 1
        heapq.heappush(self._queue, ((2 * deliver * n + to.rank) * n
                                     + src.rank, b"", seq, src, to, data, tag))

    def _schedule_timer(self, owner: Context, tag: tuple, timeout: int):
        now, n = self.now, self._n
        if self._timeouts_honored:
            ring = now + timeout
        else:
            ring = now + self.rng.randint(1, self.scenario.timer_skew_max)
        self._seq = seq = self._seq + 1
        tag_code = self.trace.code(_tag_label(tag))
        self.trace.add(now, TIMER_SET, owner.code, owner.code, 0, tag_code,
                       {"ring": ring})
        heapq.heappush(self._queue, (
            ((2 * ring + _PHASE_RING) * n + owner.rank) * n + owner.rank,
            repr(tag).encode(), seq, owner, owner, tag, tag_code))

    # -- run loop ------------------------------------------------------------

    def start(self):
        trace = self.trace
        trace.add(0, trace.code("scenario"), NULL, NULL, 0, NO_TAG, {
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
            trace.add(0, trace.code("byzantine"), trace.code(label), NULL, 0,
                      NO_TAG, {})
        for ctx in self._by_rank:
            if ctx is not None:
                ctx.machine.on_start(ctx)

    def step(self):
        key, _, _, src, dst, item, tag = heapq.heappop(self._queue)
        tick = key // self._per_phase  # 2 * time + phase
        self.now = now = tick >> 1
        self._dispatched += 1
        if tick & 1:
            self.trace.row(now, TIMER_RING, dst.code, dst.code, 0, tag)
            dst.machine.on_timer(dst, item)
            return
        self.trace.row(now, DELIVER, src.code, dst.code, len(item), tag)
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
        return self.trace

    def trace_jsonl(self) -> str:
        return self.trace.jsonl()


def _tag_label(tag: tuple) -> str:
    return tag[0] if isinstance(tag, tuple) and tag else str(tag)
