"""Deterministic discrete-event network with FIFO links and dual-mode timers.

It holds the event loop (`Simulation`), the handle a process has into it
(`Context`), the handler interface (`Machine`) and a run's settings as plain
dataclasses (`Scenario`, `DelayPolicy`), which `scenarios` types and bounds.

Time is an integer tick count.  Events dispatch in (time, phase, dst, src,
timer tag, queue order) order: message deliveries at a tick dispatch before
timer rings at the same tick, because a timer with timeout d set at t rings
*after* time t + d.  Links never drop messages; per ordered pair, delivery
order equals send order.

The queue is a calendar (Brown, CACM 1988): the bucket of each (tick,
phase), numbered 2 * time + phase, collects its events unsorted and is
sorted once when the loop reaches it; a heap of the pending bucket numbers
picks the next.  A delivery's key in its bucket is dst rank * P + src rank,
where P is the number of processes and a process's rank is its place in
(kind, ordinal) order: servers, then brokers, then clients; a ring's key is
its owner's rank.  Deliveries sort by key, rings by (key, timer tag bytes),
and both sorts are stable, so ties keep their queue order and the copies on
one link their send order.  Every delay is at least 1 tick, so no delivery
lands in the bucket being dispatched; a timer set to ring in it (timeout 0,
set by a ring) goes into its rest, in order.

A constant delay policy delays each envelope 1 tick, but on overridden
links; a uniform one has the seeded scheduler draw each delay, with
`random.Random.randrange`'s own loop.  FIFO order is kept by clamping each
delivery at or after the previous one on its link; with all delays 1 the
clamp cannot bind and is skipped.  A timer rings its timeout after it is
set, or, under the scheduler timer policy, 1 to `TIMER_SKEW_MAX` ticks
after.  A fan-out is one scheduling call.
"""

from __future__ import annotations

import random
from bisect import insort_right
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import itemgetter

from . import crypto, trace, wire
from .bits import DecodeError
from .procs import ProcessId, brokers, client, servers
from .trace import (DELIVER, NO_TAG, NULL, SEND, TIMER_RING, VERIFY,
                    _PENDING_BYTES, _pack_row)

GOOD_CASE = "good_case"
ADVERSARIAL = "adversarial"
MAX_EVENTS = 5_000_000  # dispatches a run may make before it must quiesce
TIMER_SKEW_MAX = 8  # a scheduler timer rings at most this long after it is set
# ticks a scenario may give: < 2^23 events (MAX_EVENTS) this far apart fit 2^63
TICK_BOUND = 1 << 32


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


def _span(lo: int, hi: int) -> tuple:
    """[lo, hi] as `_uniform` reads it: (lo, count, the count's bit length)."""
    n = hi - lo + 1
    if n <= 0:
        raise ValueError(f"empty range [{lo}, {hi}]")
    return lo, n, n.bit_length()


def _uniform(getrandbits, span: tuple) -> int:
    """A draw from `span` by the `getrandbits(k)` loop of `rng.randrange`,
    given `rng.getrandbits`: its value, and `rng` left in its state."""
    lo, n, k = span
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return lo + r


@dataclass
class Scenario:
    """A run's settings; `scenarios.validate` types and bounds them."""

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

    def processes(self) -> list[ProcessId]:
        return [*servers(self.n_servers), *brokers(self.n_brokers),
                *map(client, range(self.n_clients))]


class Context:
    """Per-process handle into the simulation: sending, timers, crypto.

    The crypto facade is bound to the owning process: sign/multisign always
    use the owner's key, so a Byzantine behavior cannot mint signatures for
    keys it does not hold.  `machine` is the process's machine (None for a
    context that only reaches the crypto facade), and `rank` its place in an
    event's key (see the module docstring).  `servers` and `brokers` are the
    simulation's tuples of ids, and `plurality` (f + 1) and `quorum` (2f + 1)
    its thresholds: a machine reads them here and keeps no copy.  `emit`
    writes one trace row from the process through `Trace.add`, and
    `emit_rows` several of one kind through `Trace.extend`.
    """

    def __init__(self, sim: "Simulation", pid: ProcessId,
                 machine: "Machine | None" = None):
        self.sim = sim
        self.pid = pid
        self.machine = machine
        self.code = sim.trace.code(pid.label)
        self.rank = sim._rank_offsets[pid.kind] + pid.ordinal
        self.servers, self.brokers = sim.servers, sim.brokers
        self.plurality, self.quorum = sim.plurality, sim.quorum

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
            sim._schedule_send(self, dsts, data,
                               sim.trace.code(type(msg).__name__))

    def set_timer(self, tag: tuple, timeout: int):
        self.sim._schedule_timer(self, tag, timeout)

    def shared(self, fn, *args):
        """`fn(*args)` for a pure `fn`, through the simulation's memo (see
        `crypto.Oracle.shared`)."""
        return self.sim.oracle.shared(fn, *args)

    def emit(self, kind: str, **extra):
        self.sim.trace.add(self.sim.now, kind, self.code, NULL, 0, NO_TAG,
                           extra)

    def emit_rows(self, kind: str, **columns):
        """`emit` once per row in one call: each keyword is a list holding
        its value for every row, in order."""
        self.sim.trace.extend(self.sim.now, kind, self.code, columns)

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
        return self.sim.oracle.verify_certificate(self.pid, cert, statement,
                                                  threshold)

    def verify_plurality(self, cert, statement: bytes) -> bool:
        return self.verify_certificate(cert, statement, self.plurality)

    def verify_quorum(self, cert, statement: bytes) -> bool:
        return self.verify_certificate(cert, statement, self.quorum)


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
_DELIVERY_ORDER, _RING_ORDER = itemgetter(0), itemgetter(0, 1)
# in-flight cell states besides a decoded message, values a deep copy keeps
_UNDECODED = None     # no copy delivered yet
_UNDECODABLE = False  # the bytes raised DecodeError


class Simulation:
    """The event loop over one scenario's machines.

    The scenario must pass `scenarios.validate`: delays and timers follow
    its policies, whatever its synchrony (`build_simulation` validates).

    Every copy of a byte string in flight shares one decode: `_in_flight`
    maps the bytes to a cell [decoded message, deliveries still queued], the
    first delivery decodes and later ones reuse the result.  Sharing is sound
    because `wire.deserialize` is a pure function of the per-simulation
    `WireContext` and the bytes, and a decoded message is deeply immutable.
    A cell is dropped with its last delivery, so the map is empty at
    quiescence.

    A queued delivery is (key, src context, dst context, bytes, trace tag
    code) and a ring (key, timer tag bytes, owner context, timer tag, trace
    tag code).  Each context carries its machine, so a dispatch looks the
    hook up on the machine itself.  `_buckets` maps each pending bucket's
    number to its events, and `_ticks` is the heap of those numbers;
    `_bucket`, numbered `_tick`, is being dispatched from place `_at` on.
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
        self.trace = trace.Trace()
        self.servers, self.brokers = servers(s.n_servers), brokers(s.n_brokers)
        self.plurality, self.quorum = s.fault_bound + 1, 2 * s.fault_bound + 1
        self._buckets: dict[int, list] = {}
        self._ticks: list[int] = []
        self._bucket, self._tick, self._at = [], -1, 0
        counts = (s.n_servers, s.n_brokers, s.n_clients)
        self._rank_offsets = (0, counts[0], counts[0] + counts[1])
        self._n = n = sum(counts)
        self._counts = counts
        self._link_last: dict[int, int] = {}  # src rank * P + dst rank -> tick
        # each process's context by rank; None where it has no machine
        self._by_rank: list = [None] * n
        for pid, machine in machines.items():
            if not 0 <= pid.ordinal < counts[pid.kind]:
                raise ValueError(f"the scenario counts no process {pid!r}")
            ctx = Context(self, pid, machine)
            self._by_rank[ctx.rank] = ctx
        # `servers`, the fan-out to every server, checked once if it can be
        self._server_contexts = self._by_rank[:s.n_servers]
        self._fan_out = None if None in self._server_contexts else self.servers
        # the policies as data, drawn from `rng` at each use, so a deep copy
        # of the simulation draws from its own copy
        self._delays = self._resolve(s.delay_policy)
        self._skew = (None if s.timer_policy == "timeout"
                      else _span(1, TIMER_SKEW_MAX))
        self._in_flight: dict[bytes, list] = {}
        self._dispatched = 0

    def _resolve(self, policy: DelayPolicy):
        """`policy` as (the delay of each overridden link, src rank * P + dst
        rank; the `_span` other links draw from, or None if theirs is 1), or
        None if all are 1; unmatched overrides drop."""
        rank = {ctx.pid.label: ctx.rank for ctx in self._by_rank
                if ctx is not None} if policy.overrides else {}
        fixed = {}
        for link, delay in policy.overrides.items():
            src, _, dst = link.partition("->")
            if src in rank and dst in rank:
                fixed[rank[src] * self._n + rank[dst]] = delay
        span = (_span(policy.min_delay, policy.max_delay)
                if policy.kind == "uniform" else None)
        return (fixed, span) if fixed or span else None

    # -- scheduling ----------------------------------------------------------

    def _schedule_send(self, src: Context, dsts, data: bytes, tag: int):
        """Queue `data`, of trace tag code `tag`, to each of `dsts` in turn;
        ValueError, and none queued, if one is not a process with a machine."""
        if dsts is self._fan_out:
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
        now, n, delays = self.now, self._n, self._delays
        fixed, span = delays or (None, None)
        getrandbits = self.rng.getrandbits
        code, rank, size = src.code, src.rank, len(data)
        rows, buckets = self.trace.pending, self._buckets
        at = bucket = None
        for to in tos:
            if delays is None:
                deliver = now + 1
            else:
                link = rank * n + to.rank
                # an override, at least 1, else a draw, else 1
                delay = (fixed and fixed.get(link)) or (
                    _uniform(getrandbits, span) if span else 1)
                deliver = now + delay if delay > 1 else now + 1
                last = self._link_last.get(link, 0)
                if deliver < last:
                    deliver = last
                self._link_last[link] = deliver
            rows += _pack_row(now, size, SEND, code, to.code, tag)
            if 2 * deliver != at:
                at = 2 * deliver
                bucket = buckets.get(at) or self._new_bucket(at)
            bucket.append((to.rank * n + rank, src, to, data, tag))
        cell = self._in_flight.get(data)
        if cell is None:
            self._in_flight[data] = [_UNDECODED, len(tos)]
        else:
            cell[1] += len(tos)

    def _schedule_timer(self, owner: Context, tag: tuple, timeout: int):
        now = self.now
        ring = now + (timeout if self._skew is None
                      else _uniform(self.rng.getrandbits, self._skew))
        tag_code = self.trace.code(_tag_label(tag))
        self.trace.add(now, "timer_set", owner.code, owner.code, 0, tag_code,
                       {"ring": ring})
        event = (owner.rank, repr(tag).encode(), owner, tag, tag_code)
        at = 2 * ring + _PHASE_RING
        if at == self._tick:  # into the rest of the bucket being dispatched
            insort_right(self._bucket, event, self._at, key=_RING_ORDER)
        else:
            (self._buckets.get(at) or self._new_bucket(at)).append(event)

    def _new_bucket(self, at: int) -> list:
        """An empty bucket numbered `at`, queued."""
        heappush(self._ticks, at)
        return self._buckets.setdefault(at, [])

    @property
    def _queue(self) -> range:
        """A range as long as the events still to dispatch, counted when
        asked: it is falsy exactly at quiescence."""
        return range(len(self._bucket) - self._at
                     + sum(map(len, self._buckets.values())))

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
        """Dispatch the next event, sorting its bucket on reaching it."""
        bucket, at = self._bucket, self._at
        if at == len(bucket):
            tick = heappop(self._ticks)
            self._bucket = bucket = self._buckets.pop(tick)
            bucket.sort(key=_RING_ORDER if tick & 1 else _DELIVERY_ORDER)
            self._tick, self.now, at = tick, tick >> 1, 0
        self._at = at + 1
        self._dispatched += 1
        now = self.now
        rows = self.trace.pending
        if len(rows) >= _PENDING_BYTES:
            self.trace.flush()
        _, src, dst, item, tag = bucket[at]
        if self._tick & 1:
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
        while self._ticks or self._at < len(self._bucket):
            if self._dispatched >= MAX_EVENTS:
                raise EventBudgetExhausted(
                    f"no quiescence after {MAX_EVENTS} events")
            self.step()
        self._bucket, self._at = [], 0  # hold no spent events
        self.trace.flush()
        return self.trace

    def trace_jsonl(self) -> str:
        return "".join(self.trace.jsonl())


def _tag_label(tag: tuple) -> str:
    return tag[0] if isinstance(tag, tuple) and tag else str(tag)
