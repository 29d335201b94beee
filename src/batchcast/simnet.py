"""Deterministic discrete-event network with FIFO links and dual-mode timers.

Time is an integer tick count.  The event queue is a heap ordered by
(time, phase, dst, src/tag, sequence); message deliveries at a tick dispatch
before timer rings at the same tick, because a timer with timeout d set at t
rings *after* time t + d.  Links never drop messages; per ordered pair,
delivery order equals send order.

Good-case mode: every link delay is exactly 1 tick and timers honor their
timeouts.  Adversarial mode: the seeded scheduler picks per-envelope delays
(bounded by a horizon so runs terminate) and may disregard timer timeouts;
FIFO order is preserved by clamping each delivery at or after the previous
one on the same link.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass, field

from . import crypto, wire
from .bits import DecodeError
from .procs import ProcessId, broker, client, server

GOOD_CASE = "good_case"
ADVERSARIAL = "adversarial"


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
        key = f"{src}->{dst}"
        if key in self.overrides:
            return self.overrides[key]
        if self.kind == "constant":
            return self.value
        return rng.randint(self.min_delay, self.max_delay)


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
    max_events: int = 5_000_000

    def validate(self):
        if self.n_servers != 3 * self.fault_bound + 1:
            raise ValueError("server count must be 3f + 1")
        if self.n_brokers < 1 or self.n_clients < 0:
            raise ValueError("bad process counts")
        faulty_brokers = sum(1 for label in self.fault_script
                             if label.startswith("B"))
        if faulty_brokers >= self.n_brokers:
            raise ValueError("at least one broker must be correct")
        if self.synchrony not in (GOOD_CASE, ADVERSARIAL):
            raise ValueError("unknown synchrony mode")

    def processes(self) -> list[ProcessId]:
        return ([server(i) for i in range(self.n_servers)]
                + [broker(i) for i in range(self.n_brokers)]
                + [client(i) for i in range(self.n_clients)])


_BASE_KEYS = ("time", "kind", "src", "dst", "bytes_len", "tag")
# per record kind, the event-specific keys the trace checker reads
_EXTRA_KEYS = {
    "broadcast": ("context", "message"),
    "app_deliver": ("client", "context", "message"),
    "dir_import": ("id", "keycard"),
    "dir_import_rejected": ("id", "keycard"),
    "assigner_record": ("keycard", "assigner"),
    "fb_deliver": ("origin", "seq", "payload"),
}
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


@dataclass(slots=True)
class TraceEvent:
    """One trace record: six base fields, event-specific keys in `extra`.

    This is the only record form the checker and the cost ledger read; JSON
    is written by `to_json` and read back by `from_record`.
    """

    time: int
    kind: str
    src: str | None = None
    dst: str | None = None
    bytes_len: int = 0
    tag: str = ""
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        rec = {"time": self.time, "kind": self.kind, "src": self.src,
               "dst": self.dst, "bytes_len": self.bytes_len, "tag": self.tag}
        rec.update(self.extra)
        return _ENCODER.encode(rec)

    @classmethod
    def from_record(cls, rec) -> "TraceEvent":
        """The inverse of `to_json` on a decoded record.

        Raises ValueError for a record that is not an object, lacks an
        integer `time` or a string `kind`, lacks a key `_EXTRA_KEYS` gives
        its kind, or is a `scenario` header without integer `servers`,
        `brokers` and `clients`.
        """
        if not isinstance(rec, dict):
            raise ValueError("trace record is not an object")
        if type(rec.get("time")) is not int:
            raise ValueError("trace record without an integer time")
        if not isinstance(rec.get("kind"), str):
            raise ValueError("trace record without a string kind")
        extra = {k: v for k, v in rec.items() if k not in _BASE_KEYS}
        for key in _EXTRA_KEYS.get(rec["kind"], ()):
            if key not in extra:
                raise ValueError(f"{rec['kind']} record without {key!r}")
        if rec["kind"] == "scenario" and any(
                type(extra.get(k)) is not int
                for k in ("servers", "brokers", "clients")):
            raise ValueError("scenario header without integer servers, "
                             "brokers and clients")
        return cls(rec["time"], rec["kind"], rec.get("src"), rec.get("dst"),
                   rec.get("bytes_len", 0), rec.get("tag", ""), extra)


class Context:
    """Per-process handle into the simulation: sending, timers, crypto.

    The crypto facade is bound to the owning process: sign/multisign always
    use the owner's key, so a Byzantine behavior cannot mint signatures for
    keys it does not hold.
    """

    def __init__(self, sim: "Simulation", pid: ProcessId):
        self.sim = sim
        self.pid = pid
        self.label = pid.label
        self.order = (pid.kind, pid.ordinal)  # its place in an event's key

    @property
    def now(self) -> int:
        return self.sim.now

    def send(self, dst: ProcessId, msg):
        self.sim._schedule_send(self, dst,
                                wire.serialize(self.sim.wire_ctx, msg),
                                wire.tag_name(msg))

    def set_timer(self, tag: tuple, timeout: int):
        self.sim._schedule_timer(self, tag, timeout)

    def emit(self, kind: str, **extra):
        self.sim.trace.append(TraceEvent(self.sim.now, kind, src=self.label,
                                         extra=extra))

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
        self.sim.trace.append(TraceEvent(self.sim.now, "verify",
                                         src=self.label, tag=verb))

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


class Machine:
    """Pure event handler: override the on_* hooks."""

    def on_start(self, ctx: Context):
        pass

    def on_message(self, ctx: Context, src: ProcessId, msg):
        pass

    def on_timer(self, ctx: Context, tag: tuple):
        pass


_PHASE_DELIVER = 0
_PHASE_RING = 1
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
    """

    def __init__(self, scenario: Scenario, machines: dict[ProcessId, Machine],
                 oracle: crypto.Oracle | None = None):
        scenario.validate()
        self.scenario = scenario
        self.machines = machines
        self.oracle = oracle or crypto.Oracle(scenario.processes())
        self.wire_ctx = wire.WireContext(scenario.n_servers)
        self.rng = random.Random(scenario.seed)
        self.now = 0
        self.trace: list[TraceEvent] = []
        self._queue: list = []
        self._seq = 0
        self._link_last: dict[tuple, int] = {}  # label pair -> last delivery
        self._contexts = {pid: Context(self, pid) for pid in machines}
        self._in_flight: dict[bytes, list] = {}
        self._dispatched = 0

    # -- scheduling ----------------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _schedule_send(self, src: Context, dst: ProcessId, data: bytes,
                       tag: str):
        to = self._contexts.get(dst)
        if to is None:
            raise ValueError(f"unknown destination {dst!r}")
        if self.scenario.synchrony == GOOD_CASE:
            delay = 1
        else:
            delay = max(1, self.scenario.delay_policy.delay(
                self.rng, src.label, to.label))
        link = (src.label, to.label)
        deliver = max(self.now + delay, self._link_last.get(link, 0))
        self._link_last[link] = deliver
        seq = self._next_seq()
        self.trace.append(TraceEvent(self.now, "send", src.label, to.label,
                                     len(data), tag))
        cell = self._in_flight.get(data)
        if cell is None:
            self._in_flight[data] = [_UNDECODED, 1]
        else:
            cell[1] += 1
        key = (deliver, _PHASE_DELIVER, to.order, src.order, b"", seq)
        heapq.heappush(self._queue, (key, ("deliver", src, to, data, tag)))

    def _schedule_timer(self, owner: Context, tag: tuple, timeout: int):
        if (self.scenario.synchrony == GOOD_CASE
                or self.scenario.timer_policy == "timeout"):
            ring = self.now + timeout
        else:
            ring = self.now + self.rng.randint(1, self.scenario.timer_skew_max)
        seq = self._next_seq()
        tag_bytes = repr(tag).encode()
        self.trace.append(TraceEvent(self.now, "timer_set", owner.label,
                                     owner.label, 0, _tag_label(tag),
                                     extra={"ring": ring}))
        key = (ring, _PHASE_RING, owner.order, owner.order, tag_bytes, seq)
        heapq.heappush(self._queue, (key, ("ring", owner, tag)))

    # -- run loop ------------------------------------------------------------

    def start(self):
        self.trace.append(TraceEvent(0, "scenario", extra={
            "name": self.scenario.name,
            "servers": self.scenario.n_servers,
            "brokers": self.scenario.n_brokers,
            "clients": self.scenario.n_clients,
            "f": self.scenario.fault_bound,
            "seed": self.scenario.seed,
            "payload_bits": self.scenario.payload_bits,
            "synchrony": self.scenario.synchrony,
        }))
        for label in sorted(self.scenario.fault_script):
            self.trace.append(TraceEvent(0, "byzantine", src=label))
        for pid in sorted(self.machines):
            self.machines[pid].on_start(self._contexts[pid])

    def step(self):
        key, event = heapq.heappop(self._queue)
        self.now = key[0]
        self._dispatched += 1
        if event[0] == "deliver":
            _, src, dst, data, tag = event
            self.trace.append(TraceEvent(self.now, "deliver", src.label,
                                         dst.label, len(data), tag))
            cell = self._in_flight[data]
            msg = cell[0]
            if msg is _UNDECODED:
                try:
                    msg = wire.deserialize(self.wire_ctx, data)
                except DecodeError:
                    msg = _UNDECODABLE
                cell[0] = msg
            cell[1] -= 1
            if not cell[1]:
                del self._in_flight[data]
            if msg is not _UNDECODABLE:
                self.machines[dst.pid].on_message(dst, src.pid, msg)
        else:
            _, owner, tag = event
            self.trace.append(TraceEvent(self.now, "timer_ring", owner.label,
                                         owner.label, 0, _tag_label(tag)))
            self.machines[owner.pid].on_timer(owner, tag)

    def run_to_quiescence(self):
        if not self.trace:
            self.start()
        while self._queue:
            if self._dispatched >= self.scenario.max_events:
                raise RuntimeError("event budget exhausted before quiescence")
            self.step()
        return self.trace

    def trace_jsonl(self) -> str:
        return "\n".join(ev.to_json() for ev in self.trace) + "\n"


def _tag_label(tag: tuple) -> str:
    return tag[0] if isinstance(tag, tuple) and tag else str(tag)
