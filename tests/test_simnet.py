"""Event loop semantics: delays, FIFO links, timers, determinism."""

import random
import re
from collections import Counter, defaultdict, deque
from copy import deepcopy
from dataclasses import dataclass, field

from batchcast import scenarios, simnet
from batchcast.procs import PROCESS_BOUNDS, ProcessId, broker, client, server
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


def test_fifo_order_under_adversarial_delays(monkeypatch):
    sc = tiny_scenario(synchrony=ADVERSARIAL, delay_policy=DelayPolicy(
        kind="uniform", min_delay=1, max_delay=10))
    a = Script(sends=[(1, server(1), Ranked(0)), (2, server(1), Ranked(1))])
    machines = idle_machines(sc)
    machines[server(0)] = a
    sim = Simulation(sc, machines)
    # first envelope slow, second fast: FIFO clamps the second
    delays = [10, 1]
    monkeypatch.setattr(simnet, "_uniform",
                        lambda *_: delays.pop(0) if delays else 1)
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


def test_every_byte_sent_between_processes_is_delivered():
    """At quiescence the bytes of the sends between distinct processes
    equal those of their deliveries, over the corpus."""
    for name, factory in scenarios.CORPUS.items():
        sim = scenarios.run_scenario(factory(), seed=2)
        total = {"send": 0, "deliver": 0}
        for ev in sim.trace:
            if ev.kind in total and ev.src != ev.dst:
                total[ev.kind] += ev.bytes_len
        assert total["send"] == total["deliver"] > 0, name


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


def _copy_cases():
    """(corpus name, seed, timer policy): the corpus at seeds 0-2, and its
    adversarial scenarios again with the scheduler timing timers."""
    for name in sorted(scenarios.CORPUS):
        adversarial = scenarios.CORPUS[name]().synchrony == ADVERSARIAL
        for seed in range(3):
            yield name, seed, "timeout"
            if adversarial:
                yield name, seed, "scheduler"


@pytest.mark.parametrize("name,seed,timers",
                         [*_copy_cases(), ("batching_limit", 0, "timeout")])
def test_the_queue_counts_the_events_still_to_dispatch(name, seed, timers):
    """`len(sim._queue)`, which the bench's queue gauge reads after each
    scheduling call, is the number of events queued and not yet
    dispatched, and the queue is falsy exactly at quiescence: a
    step-by-step run dispatches every event it queued."""
    scenario = (scenarios.batching_limit(m=64, n_clients=64)
                if name == "batching_limit" else scenarios.CORPUS[name]())
    scenario.seed, scenario.timer_policy = seed, timers
    sim = scenarios.build_simulation(scenario)
    queued = [0]

    def counting(schedule, events):
        def wrapper(*args):
            schedule(*args)
            queued[0] += events(*args)
            assert len(sim._queue) == queued[0] - sim._dispatched
        return wrapper
    sim._schedule_send = counting(sim._schedule_send,
                                  lambda src, dsts, *_: len(dsts))
    sim._schedule_timer = counting(sim._schedule_timer, lambda *_: 1)
    sim.start()
    while sim._queue:
        assert len(sim._queue) == queued[0] - sim._dispatched > 0
        sim.step()
    assert sim._dispatched == queued[0] > 0
    sim.run_to_quiescence()
    assert sim._dispatched == queued[0] and not sim._queue


@pytest.mark.parametrize("name,seed,timers", list(_copy_cases()))
def test_a_deep_copy_of_a_built_simulation_runs_on_its_own(name, seed,
                                                           timers):
    """A copy, made before the run starts or at every 16th dispatched event,
    draws its delays and timer skews from its own generator and keeps the
    state of every message in flight, so it finishes the unforked run, and
    running it first leaves the original's schedule alone."""
    def built():
        scenario = scenarios.CORPUS[name]()
        scenario.seed, scenario.timer_policy = seed, timers
        return scenarios.build_simulation(scenario)

    unforked = built()
    unforked.run_to_quiescence()
    expected = unforked.trace_jsonl()
    original = built()
    copy = deepcopy(original)
    copy.run_to_quiescence()
    assert copy.trace_jsonl() == expected
    original.start()
    forks = 0
    while original._queue:
        if original._dispatched % 16 == 0:
            copy = deepcopy(original)
            copy.run_to_quiescence()
            assert copy.trace_jsonl() == expected, original._dispatched
            forks += 1
        original.step()
    assert forks > 0
    original.run_to_quiescence()
    assert original.trace_jsonl() == expected


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
        scenarios.validate(tiny_scenario(n_servers=5))
    with pytest.raises(ValueError):
        scenarios.validate(tiny_scenario(
            fault_script={"B0": {"behavior": "silent_broker"}}))


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
    # malformed entries and containers, which a scenario file's key table
    # would have typed
    "entry_without_at": (lambda sc: sc.broadcasts[0].pop("at"),
                         "missing key 'broadcasts[0].at'"),
    "context_an_int": (lambda sc: sc.broadcasts[0].update(context=7),
                       "broadcasts[0].context must be a string"),
    "message_an_int": (lambda sc: sc.broadcasts[1].update(message=7),
                       "broadcasts[1].message must be a string"),
    "message_bytes": (lambda sc: sc.broadcasts[0].update(
        message=sc.broadcasts[0]["message"].encode()),
        "broadcasts[0].message must be a string"),
    "entry_not_an_object": (lambda sc: sc.broadcasts.__setitem__(1, [1, 0]),
                            "broadcasts[1] must be an object"),
    "entry_with_an_int_key": (lambda sc: sc.broadcasts[1].update({7: 0}),
                              "unknown key 'broadcasts[1].7'"),
    "broadcasts_an_object": (lambda sc: setattr(sc, "broadcasts", {
        i: e for i, e in enumerate(sc.broadcasts)}),
        "broadcasts must be a list"),
    "broker_order_value_an_int": (lambda sc: setattr(
        sc, "broker_order", {0: 0}), "broker_order.0"),
    "broker_order_a_list": (lambda sc: setattr(sc, "broker_order", [[0]]),
                            "broker_order must be an object"),
    "delay_policy_none": (lambda sc: setattr(sc, "delay_policy", None),
                          "delay_policy must be an object"),
    "overrides_a_list": (lambda sc: setattr(sc, "delay_policy", DelayPolicy(
        overrides=[("B0->S3", 2)])),
        "delay_policy.overrides must be an object"),
    "fault_script_a_list": (lambda sc: setattr(sc, "fault_script", [
        "S3"]), "fault_script must be an object"),
    "preload_directory_no": (lambda sc: setattr(sc, "preload_directory", "no"),
                             "preload_directory must be a bool"),
    # keys of another type than the string a scenario file's keys are
    "fault_script_int_label": (lambda sc: sc.fault_script.update(
        {3: {"behavior": "stalling_server"}}),
        "fault_script keys must be strings"),
    "fault_script_mixed_labels": (lambda sc: sc.fault_script.update(
        {"S3": {"behavior": "stalling_server"},
         3: {"behavior": "stalling_server"}}),
        "fault_script keys must be strings"),
    "override_int_link": (_uniform(overrides={3: 2}),
                          "delay_policy.overrides keys must be strings"),
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
    assert not sim._queue
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
    """Seeds 5-7 under both timer policies, and one run over thousands of
    ticks, each checked by `_check_dispatch_order`."""
    for seed in (5, 6, 7):
        for timers in ("timeout", "scheduler"):
            _check_dispatch_order(seed, timers, starts=1)
    _check_dispatch_order(5, "timeout", starts=250)


def _check_dispatch_order(seed, timers, starts):
    """A calendar of buckets, each sorted once on one integer key,
    dispatches exactly like a heap on the tuple (time, phase, (dst kind,
    ordinal), (src kind, ordinal), timer tag bytes, sequence), the key the
    event loop used to build per event.

    Every process, of all three kinds, answers each event with random sends
    and timers (timeout 0 among them, so rings share ticks with deliveries
    and, under the timeout policy, set timers into the bucket being
    dispatched), at ticks above 2**32 under that policy (the scheduler
    rings each timer 1 to 8 ticks after it is set).  Each process starts
    with `starts` timers; in the run with 250 each they spread over a
    million ticks, so the heap of bucket numbers holds thousands.  The
    reference replays the run's schedule into a heap keyed by that tuple
    and must pop each dispatch in turn.
    """
    import heapq
    import random

    base = 2 ** 32 + 5
    spread = 3 if starts == 1 else 10 ** 6
    chooser = random.Random(seed)
    log = []          # ("set", id, old key but time) | ("run", id, now)
    budget = [300 + 9 * starts]  # events the machines may still schedule
    ids = iter(range(1, 10 ** 6))
    own_tick = []     # (timer, tick) of each timer a ring set with timeout 0

    class Chatter(Machine):
        def on_start(self, ctx):
            self._schedule(ctx, starts, first=True)

        def on_message(self, ctx, src, msg):
            log.append(("run", ("msg", msg.domain), ctx.now))
            self._schedule(ctx, 1 + chooser.randrange(2))

        def on_timer(self, ctx, tag):
            log.append(("run", ("ring", tag[1]), ctx.now))
            self._schedule(ctx, 1 + chooser.randrange(2), ring=True)

        def _schedule(self, ctx, count, first=False, ring=False):
            for _ in range(count):
                if budget[0] <= 0:
                    return
                budget[0] -= 1
                i = next(ids)
                me = (ctx.pid.kind, ctx.pid.ordinal)
                if first or chooser.random() < 0.4:
                    tag = (chooser.choice("zyx"), i)  # bytes order != seq
                    timeout = (base + chooser.randrange(spread) if first
                               else chooser.choice((0, 0, 1, 2)))
                    log.append(("set", ("ring", i),
                                (1, me, me, repr(tag).encode())))
                    if ring and timeout == 0:
                        own_tick.append((("ring", i), ctx.now))
                    ctx.set_timer(tag, timeout)
                else:
                    dst = chooser.choice(processes)
                    log.append(("set", ("msg", i),
                                (0, (dst.kind, dst.ordinal), me, b"")))
                    ctx.send(dst, Ranked(i))

    sc = Scenario(name="order", n_servers=4, fault_bound=1, n_brokers=2,
                  n_clients=3, synchrony=ADVERSARIAL,
                  delay_policy=DelayPolicy(kind="uniform", min_delay=1,
                                           max_delay=3),
                  timer_policy=timers, seed=seed + 3)
    processes = sc.processes()
    sim = Simulation(sc, {pid: Chatter() for pid in processes})
    sim.run_to_quiescence()
    assert budget[0] <= 0 and not sim._queue

    ran_at = {event: now for kind, event, now in log if kind == "run"}
    assert len(ran_at) == sum(kind == "set" for kind, _, _ in log)
    assert (min(ran_at.values()) >= base) == (timers == "timeout")
    pending, seq = [], 0
    for kind, event, rest in log:
        if kind == "set":
            seq += 1
            heapq.heappush(pending, ((ran_at[event], *rest, seq), event))
        else:
            assert heapq.heappop(pending)[1] == event, (seed, timers,
                                                        starts)
    rings = [(now, event) for event, now in ran_at.items()
             if event[0] == "ring"]
    delivered = {now for event, now in ran_at.items() if event[0] == "msg"}
    assert any(now in delivered for now, _ in rings)  # rings share ticks
    if timers == "timeout":  # rings set timers into their own bucket
        assert own_tick and all(ran_at[timer] == now
                                for timer, now in own_tick)
    if starts > 1:
        assert len(set(ran_at.values())) >= 2000


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
                dsts = (ctx.servers if chooser.random() < 0.3 else tuple(
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
    sim = Simulation(sc, {pid: Chatter() for pid in processes})
    draws = []  # the delay drawn for each send on no overridden link
    uniform, delay_span = simnet._uniform, simnet._span(1, 4)

    def recorded(getrandbits, span):
        value = uniform(getrandbits, span)
        if span == delay_span:  # not a timer's skew
            draws.append(value)
        return value
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simnet, "_uniform", recorded)
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

    # the overrides were taken and the FIFO clamp delayed some deliveries
    overrides = sim.scenario.delay_policy.overrides
    unsent = iter(draws)
    sent = defaultdict(deque)
    clamped, overridden = 0, set()
    for ev in sim.trace:
        if ev.kind == "send":
            link = f"{ev.src}->{ev.dst}"
            if link in overrides:
                overridden.add(link)
            sent[(ev.src, ev.dst)].append(
                ev.time + (overrides.get(link) or next(unsent)))
        elif ev.kind == "deliver":
            due = sent[(ev.src, ev.dst)].popleft()
            assert ev.time >= due
            clamped += ev.time > due
    assert next(unsent, None) is None
    assert {"S0->S1", "C2->S0"} <= overridden and clamped


@pytest.mark.parametrize("lo", [1, 2 ** 32 - 8])
def test_uniform_draw_matches_randrange(lo):
    """A draw returns what `randrange(lo, hi + 1)` returns and leaves the
    generator in the same state, for spans 1 to 9."""
    for width in range(1, 10):
        rng, ref = random.Random(width), random.Random(width)
        span = simnet._span(lo, lo + width - 1)
        assert ([simnet._uniform(rng.getrandbits, span)
                 for _ in range(10_000)]
                == [ref.randrange(lo, lo + width) for _ in range(10_000)])
        assert rng.getstate() == ref.getstate()
    with pytest.raises(ValueError, match="empty range"):
        simnet._span(3, 2)


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
