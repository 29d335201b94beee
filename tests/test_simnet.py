"""Event loop semantics: delays, FIFO links, timers, determinism."""

from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field

from batchcast.procs import ProcessId, broker, client, server
from batchcast.simnet import (ADVERSARIAL, GOOD_CASE, Context, DelayPolicy,
                              Machine, Scenario, Simulation)
from batchcast.wire import Signup, Ranked
import pytest


def tiny_scenario(**kwargs):
    defaults = dict(name="t", n_servers=4, fault_bound=1, n_brokers=1,
                    n_clients=1, synchrony=GOOD_CASE)
    defaults.update(kwargs)
    return Scenario(**defaults)


@dataclass
class Script(Machine):
    """Sends scripted messages on timer ticks; records deliveries."""

    sends: list = field(default_factory=list)  # (at, dst, msg)
    log: list = field(default_factory=list)

    def on_start(self, ctx):
        for i, (at, _, _) in enumerate(self.sends):
            ctx.set_timer(("send", i), at)

    def on_timer(self, ctx, tag):
        if tag[0] == "send":
            _, dst, msg = self.sends[tag[1]]
            ctx.send(dst, msg)
        else:
            self.log.append(("ring", ctx.now, tag))

    def on_message(self, ctx, src, msg):
        self.log.append(("recv", ctx.now, src, msg))


def idle_machines(scenario, **special):
    machines = {pid: Script() for pid in scenario.processes()}
    machines.update(special)
    return machines


def test_good_case_delay_is_exactly_one():
    sc = tiny_scenario()
    a = Script(sends=[(3, broker(0), Signup())])
    machines = idle_machines(sc)
    machines[server(0)] = a
    sim = Simulation(sc, machines)
    sim.run_to_quiescence()
    recv = machines[broker(0)].log
    assert recv[0][1] == 4  # sent at t=3, delivered at t=4


def test_fifo_order_under_adversarial_delays():
    class TwoDelays(DelayPolicy):
        # first envelope slow, second fast: FIFO clamps the second
        def __init__(self):
            super().__init__()
            self.queue = [10, 1]

        def delay(self, rng, src, dst):
            return self.queue.pop(0) if self.queue else 1

    sc = tiny_scenario(synchrony=ADVERSARIAL, delay_policy=TwoDelays())
    a = Script(sends=[(1, server(1), Ranked(0)), (2, server(1), Ranked(1))])
    machines = idle_machines(sc)
    machines[server(0)] = a
    sim = Simulation(sc, machines)
    sim.run_to_quiescence()
    recv = [(t, msg) for kind, t, src, msg in machines[server(1)].log]
    assert [m.domain for _, m in recv] == [0, 1]  # send order preserved
    assert recv[0][0] == 11 and recv[1][0] >= 11


def test_self_send_delivered_next_step():
    sc = tiny_scenario()
    a = Script(sends=[(0, server(0), Signup())])
    machines = idle_machines(sc)
    machines[server(0)] = a
    sim = Simulation(sc, machines)
    sim.run_to_quiescence()
    assert a.log and a.log[0][1] == 1


def test_timer_good_case_rings_at_timeout():
    sc = tiny_scenario()

    class T(Machine):
        def __init__(self):
            self.rang = None

        def on_start(self, ctx):
            ctx.set_timer(("x",), 7)

        def on_timer(self, ctx, tag):
            self.rang = ctx.now

    t = T()
    machines = idle_machines(sc)
    machines[server(0)] = t
    Simulation(sc, machines).run_to_quiescence()
    assert t.rang == 7


def test_timer_adversarial_rings_strictly_after_set():
    sc = tiny_scenario(synchrony=ADVERSARIAL, timer_policy="scheduler",
                       seed=11)

    class T(Machine):
        def __init__(self):
            self.rang = None

        def on_start(self, ctx):
            ctx.set_timer(("x",), 7)

        def on_timer(self, ctx, tag):
            self.rang = ctx.now

    t = T()
    machines = idle_machines(sc)
    machines[server(0)] = t
    Simulation(sc, machines).run_to_quiescence()
    assert t.rang is not None and t.rang > 0


def test_two_timers_same_tick_ring_in_tag_order():
    sc = tiny_scenario()

    class T(Machine):
        def __init__(self):
            self.order = []

        def on_start(self, ctx):
            ctx.set_timer(("b",), 2)
            ctx.set_timer(("a",), 2)

        def on_timer(self, ctx, tag):
            self.order.append(tag[0])

    t = T()
    machines = idle_machines(sc)
    machines[server(0)] = t
    Simulation(sc, machines).run_to_quiescence()
    assert t.order == ["a", "b"]


def test_deliveries_dispatch_before_same_tick_rings():
    sc = tiny_scenario()

    class T(Machine):
        def __init__(self):
            self.order = []

        def on_start(self, ctx):
            ctx.set_timer(("ring",), 1)

        def on_timer(self, ctx, tag):
            self.order.append("ring")

        def on_message(self, ctx, src, msg):
            self.order.append("recv")

    t = T()
    a = Script(sends=[(0, server(0), Signup())])
    machines = idle_machines(sc)
    machines[server(0)] = t
    machines[server(1)] = a
    Simulation(sc, machines).run_to_quiescence()
    assert t.order == ["recv", "ring"]


def test_reliability_every_send_delivered():
    sc = tiny_scenario(synchrony=ADVERSARIAL,
                       delay_policy=DelayPolicy(kind="uniform", min_delay=1,
                                                max_delay=9), seed=3)
    a = Script(sends=[(i, server(1), Ranked(i % 4)) for i in range(20)])
    machines = idle_machines(sc)
    machines[server(0)] = a
    sim = Simulation(sc, machines)
    sim.run_to_quiescence()
    sends = [e for e in sim.trace if e.kind == "send"]
    delivers = [e for e in sim.trace if e.kind == "deliver"]
    assert len(sends) == len(delivers) == 20


def test_replay_is_byte_identical():
    def run():
        sc = tiny_scenario(synchrony=ADVERSARIAL,
                           delay_policy=DelayPolicy(kind="uniform",
                                                    min_delay=1, max_delay=6),
                           seed=99)
        a = Script(sends=[(i, server(1), Ranked(i % 4)) for i in range(10)])
        machines = idle_machines(sc)
        machines[server(0)] = a
        sim = Simulation(sc, machines)
        sim.run_to_quiescence()
        return sim.trace_jsonl()

    assert run() == run()


def test_unknown_destination_rejected():
    sc = tiny_scenario()
    a = Script(sends=[(0, client(5), Signup())])
    machines = idle_machines(sc)
    machines[server(0)] = a
    sim = Simulation(sc, machines)
    with pytest.raises(ValueError):
        sim.run_to_quiescence()


def test_scenario_invariants():
    with pytest.raises(ValueError):
        tiny_scenario(n_servers=5).validate()
    with pytest.raises(ValueError):
        tiny_scenario(fault_script={"B0": {"behavior": "silent_broker"}}
                      ).validate()


def test_empty_queue_quiesces_immediately():
    sc = tiny_scenario()
    sim = Simulation(sc, idle_machines(sc))
    trace = sim.run_to_quiescence()
    assert all(e.kind in ("scenario", "byzantine") for e in trace)


def test_good_case_timing_invariant_over_full_protocol_run():
    # every envelope takes exactly one tick; every timer honors its timeout
    from batchcast.scenarios import good_case, run_scenario

    sim = run_scenario(good_case(n_clients=3))
    in_flight = {}
    for ev in sim.trace:
        if ev.kind == "send":
            key = (ev.src, ev.dst)
            in_flight.setdefault(key, []).append(ev.time)
        elif ev.kind == "deliver":
            sent = in_flight[(ev.src, ev.dst)].pop(0)
            assert ev.time - sent == 1
        elif ev.kind == "timer_set":
            assert "ring" in ev.extra
    rings = [e for e in sim.trace if e.kind == "timer_ring"]
    sets = {(e.src, e.tag, e.extra["ring"]): e.time
            for e in sim.trace if e.kind == "timer_set"}
    assert rings and sets


def test_good_case_run_quiesces_with_client_notified():
    from batchcast.scenarios import good_case, run_scenario

    sim = run_scenario(good_case(n_clients=1))
    assert sim._queue == []
    done = [e for e in sim.trace if e.kind == "submission_complete"
            and e.src == "C0"]
    assert len(done) == 1


def test_each_in_flight_byte_string_is_decoded_once(monkeypatch):
    from batchcast import wire
    from batchcast.scenarios import concurrent_signup, run_scenario

    sent, decoded = [], []
    serialize, deserialize = wire.serialize, wire.deserialize

    def recording_serialize(ctx, msg):
        sent.append(serialize(ctx, msg))
        return sent[-1]

    def counting_deserialize(ctx, data):
        decoded.append(data)
        return deserialize(ctx, data)

    monkeypatch.setattr(wire, "serialize", recording_serialize)
    monkeypatch.setattr(wire, "deserialize", counting_deserialize)
    sim = run_scenario(concurrent_signup())
    assert sim._in_flight == {}

    # Links are FIFO, so a deliver record carries the bytes of the oldest
    # undelivered send on its link.  A byte string needs a fresh decode
    # whenever it is sent while none of its copies is in flight: a broker
    # re-sends BatchAcquired and Signatures bytes after the first copies
    # were delivered.
    unsent = iter(sent)
    links = defaultdict(deque)
    copies = Counter()
    episodes = deliveries = 0
    for ev in sim.trace:
        if ev.kind == "send":
            data = next(unsent)
            links[(ev.src, ev.dst)].append(data)
            episodes += copies[data] == 0
            copies[data] += 1
        elif ev.kind == "deliver":
            copies[links[(ev.src, ev.dst)].popleft()] -= 1
            deliveries += 1
    assert next(unsent, None) is None and not +copies
    assert len(decoded) == episodes
    assert len(set(sent)) <= len(decoded) < deliveries
    assert len(set(decoded)) == len(set(sent))


def test_undecodable_bytes_are_dropped_after_one_decode(monkeypatch):
    from batchcast import wire

    class Junk(Script):
        def on_start(self, ctx):
            tag = ctx.sim.trace.code("Junk")
            for dst in (server(1), server(2)):
                ctx.sim._schedule_send(ctx, dst, b"\xff", tag)

    attempts = []
    deserialize = wire.deserialize

    def counting_deserialize(ctx, data):
        attempts.append(data)
        return deserialize(ctx, data)

    monkeypatch.setattr(wire, "deserialize", counting_deserialize)
    sc = tiny_scenario()
    machines = idle_machines(sc)
    machines[server(0)] = Junk()
    sim = Simulation(sc, machines)
    sim.run_to_quiescence()
    delivers = [(e.src, e.dst, e.tag) for e in sim.trace
                if e.kind == "deliver"]
    assert delivers == [("S0", "S1", "Junk"), ("S0", "S2", "Junk")]
    assert all(not m.log for m in machines.values())
    assert attempts == [b"\xff"]
    assert sim._in_flight == {}


def test_dispatch_order_matches_the_tuple_key_reference():
    """A heap on one integer key dispatches exactly like one on the tuple
    (time, phase, (dst kind, ordinal), (src kind, ordinal), timer tag
    bytes, sequence), the key the event loop used to build per event.

    Every process, of all three kinds, answers each event with random sends
    and timers (timeout 0 among them, so rings share ticks with deliveries),
    at ticks above 2**32.  The reference replays the run's schedule into a
    heap keyed by that tuple and must pop each dispatch in turn.
    """
    import heapq
    import random

    base = 2 ** 32 + 5
    chooser = random.Random(5)
    log = []          # ("set", id, old key but time) | ("run", id, now)
    budget = [300]    # events the machines may still schedule
    ids = iter(range(1, 10 ** 6))

    class Chatter(Machine):
        def on_start(self, ctx):
            self._schedule(ctx, first=True)

        def on_message(self, ctx, src, msg):
            log.append(("run", ("msg", msg.domain), ctx.now))
            self._schedule(ctx)

        def on_timer(self, ctx, tag):
            log.append(("run", ("ring", tag[1]), ctx.now))
            self._schedule(ctx)

        def _schedule(self, ctx, first=False):
            for _ in range(1 + chooser.randrange(2)):
                if budget[0] <= 0:
                    return
                budget[0] -= 1
                i = next(ids)
                me = (ctx.pid.kind, ctx.pid.ordinal)
                if first or chooser.random() < 0.4:
                    tag = (chooser.choice("zyx"), i)  # bytes order != seq
                    timeout = (base + chooser.randrange(3) if first
                               else chooser.choice((0, 0, 1, 2)))
                    log.append(("set", ("ring", i),
                                (1, me, me, repr(tag).encode())))
                    ctx.set_timer(tag, timeout)
                else:
                    dst = chooser.choice(processes)
                    log.append(("set", ("msg", i),
                                (0, (dst.kind, dst.ordinal), me, b"")))
                    ctx.send(dst, Ranked(i))

    sc = Scenario(name="order", n_servers=4, fault_bound=1, n_brokers=2,
                  n_clients=3, synchrony=ADVERSARIAL,
                  delay_policy=DelayPolicy(kind="uniform", min_delay=1,
                                           max_delay=3), seed=8)
    processes = sc.processes()
    sim = Simulation(sc, {pid: Chatter() for pid in processes})
    sim.run_to_quiescence()
    assert budget[0] <= 0 and sim._queue == []

    ran_at = {event: now for kind, event, now in log if kind == "run"}
    assert len(ran_at) == sum(kind == "set" for kind, _, _ in log)
    assert min(ran_at.values()) >= base
    pending, seq = [], 0
    for kind, event, rest in log:
        if kind == "set":
            seq += 1
            heapq.heappush(pending, ((ran_at[event], *rest, seq), event))
        else:
            assert heapq.heappop(pending)[1] == event
    rings = [(now, event) for event, now in ran_at.items()
             if event[0] == "ring"]
    delivered = {now for event, now in ran_at.items() if event[0] == "msg"}
    assert any(now in delivered for now, _ in rings)  # rings share ticks


def test_fake_context_simulation_builds(oracle):
    from conftest import FakeCtx

    ctx = FakeCtx(oracle, client(3))
    assert ctx.sim.machines == {} and ctx.machine is None
    assert ctx.verify(oracle.keycard(client(3)), b"s", b"x") is False
    assert [(e.kind, e.src, e.tag) for e in ctx.sim.trace] == [
        ("verify", "C3", "verify")]


def test_unknown_destinations_raise_before_anything_is_queued():
    """A send to an ordinal past its kind's count, a negative ordinal or
    kind, a kind past the last, a process without a machine or a
    non-process is refused, with a message that names no other process."""
    sc = tiny_scenario()
    machines = idle_machines(sc)
    del machines[broker(0)]
    sim = Simulation(sc, machines)
    src = Context(sim, server(0), machines[server(0)])
    for dst in (server(4), client(1), server(-1), client(-2), broker(0),
                ProcessId(-1, 0), ProcessId(3, 0), "S0", (0, 0), None):
        with pytest.raises(ValueError, match="unknown destination") as exc:
            sim._schedule_send(src, dst, b"\x00", 0)
        if dst == ProcessId(-1, 0):
            assert "C0" not in str(exc.value)
    assert not sim._queue and not sim._in_flight
