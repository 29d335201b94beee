"""Event loop semantics: delays, FIFO links, timers, determinism."""

import random
import re
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field

from batchcast import simnet
from batchcast.procs import ProcessId, broker, client, server, servers
from batchcast.simnet import (ADVERSARIAL, GOOD_CASE, Context, DelayPolicy,
                              PROCESS_BOUNDS, Machine, Scenario, Simulation)
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
    sc = tiny_scenario(synchrony=ADVERSARIAL)
    a = Script(sends=[(1, server(1), Ranked(0)), (2, server(1), Ranked(1))])
    machines = idle_machines(sc)
    machines[server(0)] = a
    sim = Simulation(sc, machines)
    # first envelope slow, second fast: FIFO clamps the second
    delays = [10, 1]
    sim._draw_delay = lambda link: delays.pop(0) if delays else 1
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


def _set_at(at):
    def edit(sc):
        sc.broadcasts[0]["at"] = at
    return edit


def _uniform(**kwargs):
    def edit(sc):
        sc.synchrony = ADVERSARIAL
        sc.delay_policy = DelayPolicy(kind="uniform", **kwargs)
    return edit


# edits of a Python-built two-client good case, with the key each
# `validate` error must name
VALIDATE_PROBES = {
    "at_minus_7": (_set_at(-7), "broadcasts[0].at"),
    "at_2_63": (_set_at(2 ** 63), "broadcasts[0].at"),
    "negative_counts": (lambda sc: setattr(sc, "fault_bound", -1) or setattr(
        sc, "n_servers", -2), "fault_bound"),
    "no_brokers": (lambda sc: setattr(sc, "n_brokers", 0), "brokers"),
    "no_clients": (lambda sc: setattr(sc, "n_clients", 0), "clients"),
    "clients_over_the_bound": (lambda sc: setattr(
        sc, "n_clients", PROCESS_BOUNDS["clients"] + 1), "clients"),
    "servers_over_the_bound": (lambda sc: setattr(sc, "fault_bound", 86)
                               or setattr(sc, "n_servers", 259), "servers"),
    "brokers_over_the_bound": (lambda sc: setattr(
        sc, "n_brokers", PROCESS_BOUNDS["brokers"] + 1), "brokers"),
    "min_delay_0": (_uniform(min_delay=0, max_delay=3),
                    "delay_policy.min_delay"),
    "max_delay_2_40": (_uniform(max_delay=2 ** 40), "delay_policy.max_delay"),
    "override_2_33": (_uniform(overrides={"B0->S3": 2 ** 33}),
                      "delay_policy.overrides.B0->S3"),
    "synchrony": (lambda sc: setattr(sc, "synchrony", "bogus"), "synchrony"),
    "client_2": (lambda sc: sc.broadcasts[1].update(client=2),
                 "broadcasts client"),
    "repeated_context": (lambda sc: sc.broadcasts[1].update(
        client=0, context=sc.broadcasts[0]["context"].upper()),
        "broadcasts repeat"),
    "two_faulty_servers": (lambda sc: sc.fault_script.update(
        S1={"behavior": "stalling_server"},
        S2={"behavior": "stalling_server"}), "fault_script"),
    "good_case_uniform": (lambda sc: setattr(sc, "delay_policy", DelayPolicy(
        kind="uniform", min_delay=5, max_delay=9)), "delay_policy"),
    "good_case_scheduler": (lambda sc: setattr(sc, "timer_policy",
                                               "scheduler"), "timer_policy"),
    "constant_of_2": (lambda sc: setattr(sc, "synchrony", ADVERSARIAL)
                      or setattr(sc, "delay_policy",
                                 DelayPolicy(min_delay=2, max_delay=2)),
                      "1 if constant"),
    # values of another type than the int a scenario file must hold
    "at_1_5": (_set_at(1.5), "broadcasts[0].at"),
    "at_true": (_set_at(True), "broadcasts[0].at"),
    "clients_2_0": (lambda sc: setattr(sc, "n_clients", 2.0), "clients"),
    "min_delay_1_5": (_uniform(min_delay=1.5, max_delay=3),
                      "delay_policy.min_delay"),
    "override_2_5": (_uniform(max_delay=3, overrides={"B0->S3": 2.5}),
                     "delay_policy.overrides.B0->S3"),
    "broker_order_0_0": (lambda sc: setattr(sc, "broker_order", {0: [0.0]}),
                         "broker_order"),
    "seed_x": (lambda sc: setattr(sc, "seed", "x"), "seed"),
    "fault_script_entry_not_an_object": (lambda sc: sc.fault_script.update(
        C1="equivocating_client"), "fault_script.C1 must be an object"),
}


@pytest.mark.parametrize("edit,key", VALIDATE_PROBES.values(),
                         ids=VALIDATE_PROBES.keys())
def test_validate_bounds_python_built_scenarios(edit, key):
    from batchcast.scenarios import good_case, run_scenario

    sc = good_case(n_clients=2)
    edit(sc)
    with pytest.raises(ValueError, match=re.escape(key)):
        run_scenario(sc)


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
            ctx.sim._schedule_send(ctx, (server(1), server(2)), b"\xff", tag)

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
    non-process is refused, with a message that names no other process,
    and a fan-out that holds one queues no copy, not even to the
    destinations before it."""
    sc = tiny_scenario()
    machines = idle_machines(sc)
    del machines[broker(0)]
    sim = Simulation(sc, machines)
    src = Context(sim, server(0), machines[server(0)])
    for dst in (server(4), client(1), server(-1), client(-2), broker(0),
                ProcessId(-1, 0), ProcessId(3, 0), "S0", (0, 0), None):
        with pytest.raises(ValueError, match="unknown destination") as exc:
            sim._schedule_send(src, (server(1), dst), b"\x00", 0)
        if dst == ProcessId(-1, 0):
            assert "C0" not in str(exc.value)
    assert not sim._queue and not sim._in_flight and not len(sim.trace)


def _fan_out_run(fan_out: bool):
    """A chatty adversarial run in which each process answers each event
    with random sends to random destination sequences, as one `send_all`
    or as one `send` per destination; the same choices either way."""
    chooser = random.Random(21)
    log = []  # (dispatching process, event, now)

    class Chatter(Machine):
        budget = [400]

        def on_start(self, ctx):
            self._chat(ctx)

        def on_message(self, ctx, src, msg):
            log.append((ctx.pid, ("msg", src, msg.domain), ctx.now))
            self._chat(ctx)

        def on_timer(self, ctx, tag):
            log.append((ctx.pid, ("ring", tag), ctx.now))
            self._chat(ctx)

        def _chat(self, ctx):
            for _ in range(1 + chooser.randrange(2)):
                if self.budget[0] <= 0:
                    return
                self.budget[0] -= 1
                if chooser.random() < 0.2:
                    ctx.set_timer(("t", chooser.randrange(99)),
                                  chooser.randrange(4))
                    continue
                dsts = (shared if chooser.random() < 0.3 else tuple(
                    chooser.choice(processes)
                    for _ in range(chooser.randrange(1, 6))))
                msg = Ranked(chooser.randrange(1000))
                if fan_out:
                    ctx.send_all(dsts, msg)
                else:
                    for dst in dsts:
                        ctx.send(dst, msg)

    sc = Scenario(name="fan_out", n_servers=4, fault_bound=1, n_brokers=2,
                  n_clients=3, synchrony=ADVERSARIAL, timer_policy="scheduler",
                  delay_policy=DelayPolicy(kind="uniform", min_delay=1,
                                           max_delay=4, overrides={
                                               "S0->S1": 9, "B1->S2": 1,
                                               "C2->S0": 7}), seed=4)
    processes = sc.processes()
    shared = servers(sc.n_servers)
    sim = Simulation(sc, {pid: Chatter() for pid in processes})
    draws = []  # the delay drawn for each send, in send order
    draw = sim._draw_delay
    sim._draw_delay = lambda link: draws.append(draw(link)) or draws[-1]
    sim.run_to_quiescence()
    return sim, log, draws


def test_send_all_matches_one_send_per_destination():
    """Under uniform delays, link overrides and FIFO clamps, a fan-out sent
    with `send_all` dispatches the same events in the same order, leaves
    the scheduler's generator in the same state and writes the same trace
    as one `send` per destination."""
    sim, log, draws = _fan_out_run(fan_out=True)
    ref_sim, ref_log, ref_draws = _fan_out_run(fan_out=False)
    assert len(log) > 600 and log == ref_log and draws == ref_draws
    assert sim.rng.getstate() == ref_sim.rng.getstate()
    assert list(sim.trace) == list(ref_sim.trace)
    assert sim.trace_jsonl() == ref_sim.trace_jsonl()

    # the overrides were drawn and the FIFO clamp delayed some deliveries
    unsent = iter(draws)
    sent = defaultdict(deque)
    clamped = 0
    for ev in sim.trace:
        if ev.kind == "send":
            sent[(ev.src, ev.dst)].append(ev.time + next(unsent))
        elif ev.kind == "deliver":
            due = sent[(ev.src, ev.dst)].popleft()
            assert ev.time >= due
            clamped += ev.time > due
    assert next(unsent, None) is None
    assert {9, 7} <= set(draws) and clamped


@pytest.mark.parametrize("lo", [1, 2 ** 32 - 8])
def test_uniform_draw_matches_randrange(lo):
    """The resolved draw returns what `randrange(lo, hi + 1)` returns and
    leaves the generator in the same state, for spans 1 to 9."""
    for span in range(1, 10):
        rng, ref = random.Random(span), random.Random(span)
        draw = simnet._uniform(rng, lo, lo + span - 1)
        assert ([draw() for _ in range(10_000)]
                == [ref.randrange(lo, lo + span) for _ in range(10_000)])
        assert rng.getstate() == ref.getstate()
    with pytest.raises(ValueError, match="empty range"):
        simnet._uniform(random.Random(0), 3, 2)


def test_serialize_calls_match_the_send_rows(monkeypatch):
    """One `wire.serialize` call per send row, fan-outs included, and the
    8 x len of what those calls return adds up to the trace's send bits:
    a wrapper of `wire.serialize` may count the wire bits."""
    from batchcast import wire
    from batchcast.scenarios import run_scenario
    from conftest import live_signup_f2

    real = wire.serialize
    calls = []

    def counting(ctx, msg):
        data = real(ctx, msg)
        calls.append(8 * len(data))
        return data

    monkeypatch.setattr(wire, "serialize", counting)
    trace = run_scenario(live_signup_f2()).trace
    sends = [8 * ev.bytes_len for ev in trace if ev.kind == "send"]
    assert len(calls) == len(sends) > 1000
    assert sum(calls) == sum(sends)
