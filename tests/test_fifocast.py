"""FIFO reliable broadcast: validity, FIFO order, consistency, totality."""

import random
from collections import Counter
from functools import partial

from conftest import FakeCtx, live_signup_f2, population
import fifo_reference as reference

from batchcast import wire
from batchcast.crypto import Oracle
from batchcast.fifocast import FifoBroadcast
from batchcast.procs import ProcessKind, broker, client, server
from batchcast.scenarios import run_scenario
from batchcast.simnet import (ADVERSARIAL, GOOD_CASE, DelayPolicy, Machine,
                              Scenario, Simulation)
from batchcast.wire import FifoEcho, FifoReady, FifoSend


class FifoNode(Machine):
    def __init__(self, broadcasts=()):
        self.broadcasts = list(broadcasts)
        self.delivered = []
        self.fifo = FifoBroadcast(self._deliver)

    def _deliver(self, ctx, origin, payload):
        self.delivered.append((origin, payload))

    def on_start(self, ctx):
        for payload in self.broadcasts:
            self.fifo.broadcast(ctx, payload)

    def on_message(self, ctx, src, msg):
        self.fifo.handle(ctx, src, msg)


class EquivocatingOrigin(FifoNode):
    """Sends conflicting payloads for seq 0 to different servers."""

    def on_start(self, ctx):
        for i in range(4):
            ctx.send(server(i), FifoSend(0, b"L" if i < 2 else b"R"))


def fifo_scenario(**kwargs):
    defaults = dict(name="fifo", n_servers=4, fault_bound=1, n_brokers=1,
                    n_clients=0, synchrony=GOOD_CASE)
    defaults.update(kwargs)
    return Scenario(**defaults)


def build_and_run(node_of, scenario):
    machines = {server(i): node_of(i) for i in range(4)}
    from batchcast.simnet import Machine
    from batchcast.procs import broker
    machines[broker(0)] = Machine()
    sim = Simulation(scenario, machines)
    sim.run_to_quiescence()
    return machines


def test_correct_sender_delivers_in_seq_order():
    machines = build_and_run(
        lambda i: FifoNode(broadcasts=[b"zero", b"one"] if i == 0 else []),
        fifo_scenario())
    for i in range(4):
        assert machines[server(i)].delivered == [(0, b"zero"), (0, b"one")]


def test_interleaved_senders_fifo_per_origin():
    machines = build_and_run(
        lambda i: FifoNode(broadcasts=[b"a%d" % i, b"b%d" % i]),
        fifo_scenario())
    for i in range(4):
        log = machines[server(i)].delivered
        for origin in range(4):
            assert [p for o, p in log if o == origin] == \
                [b"a%d" % origin, b"b%d" % origin]


def test_equivocating_origin_never_splits():
    machines = build_and_run(
        lambda i: EquivocatingOrigin() if i == 3 else FifoNode(),
        fifo_scenario(fault_script={"S3": {"behavior": "x"}}))
    choices = {p for i in range(3) for o, p in machines[server(i)].delivered}
    assert len(choices) <= 1  # no two correct servers deliver differently


def test_totality_under_adversarial_delays():
    sc = fifo_scenario(synchrony=ADVERSARIAL,
                       delay_policy=DelayPolicy(kind="uniform", min_delay=1,
                                                max_delay=7), seed=21)
    machines = build_and_run(
        lambda i: FifoNode(broadcasts=[b"x"] if i == 1 else []), sc)
    logs = [machines[server(i)].delivered for i in range(4)]
    assert any(logs)
    assert all(log == [(1, b"x")] for log in logs)


# every send of these tags is one copy of a fan-out to all servers
FAN_OUT_TAGS = ("FifoSend", "FifoEcho", "FifoReady", "Signup", "Assigner",
                "BatchMsg", "Witness", "OfferTotality")


def test_each_fan_out_is_encoded_once(monkeypatch):
    """A fan-out builds its message once, so only its first copy misses the
    serialize memo; a loop that builds one message per destination would
    encode each copy afresh."""
    real = wire.serialize
    misses: Counter = Counter()

    def counting(ctx, msg):
        if ctx.last[0] is not msg:
            misses[type(msg).__name__] += 1
        return real(ctx, msg)

    monkeypatch.setattr(wire, "serialize", counting)
    scenario = live_signup_f2()
    trace = run_scenario(scenario).trace
    send = trace.find("send")
    sends = Counter(trace.names[tag]
                    for kind, tag in zip(trace.kind, trace.tag)
                    if kind == send)
    for tag in FAN_OUT_TAGS:
        assert sends[tag] > 0, tag
        assert misses[tag] * scenario.n_servers == sends[tag], tag


def test_a_delivered_slot_keeps_no_echo_or_ready_sets():
    """After a run every slot is delivered and no map holds one, late
    Echoes and Readys included: per origin an endpoint keeps only the next
    seq to echo and the next to deliver."""
    sim = run_scenario(live_signup_f2())
    fifos = [m.dir.fifo for pid, m in sim.machines.items()
             if pid.kind == ProcessKind.SERVER]
    slots = {origin: fifo.next_seq for origin, fifo in enumerate(fifos)}
    assert all(slots.values())
    for fifo in fifos:
        assert not (fifo.echoes or fifo.readys or fifo.ready_sent
                    or fifo.held)
        assert fifo.next_echo == slots == fifo.fifo_next


def test_a_send_out_of_seq_order_is_not_echoed(oracle):
    """Links are FIFO, so only a faulty origin skips a seq: its Send waits
    for a repeat after the skipped one is echoed."""
    ctx = FakeCtx(oracle, server(0))
    fifo = FifoBroadcast(None)
    for seq, payload in ((1, b"one"), (0, b"zero"), (1, b"one")):
        fifo.handle(ctx, server(3), FifoSend(seq, payload))
    assert ctx.sent == [(server(o), FifoEcho(3, seq, payload))
                        for seq, payload in ((0, b"zero"), (1, b"one"))
                        for o in range(4)]


def fifo_script(rng, n) -> list:
    """Random (src, msg) input of one endpoint among n servers: in-order
    Sends per sender with repeats, Echoes and Readys of few slots in two
    payload variants, from the servers, a broker and a client."""
    senders = [*map(server, range(n)), broker(0), client(0)]
    next_send = {}  # by ProcessId, as B0 and S0 share ordinal 0
    script = []
    for _ in range(rng.randrange(20, 40 * n)):
        src, roll = rng.choice(senders), rng.random()
        if roll < 0.2:
            seq = next_send.get(src, 0)
            if seq and rng.random() < 0.3:
                seq = rng.randrange(seq)  # a repeat
            else:
                next_send[src] = seq + 1
            msg = FifoSend(seq, b"s%d" % seq)
        else:
            kind = FifoEcho if roll < 0.4 else FifoReady
            msg = kind(rng.randrange(2), rng.randrange(3),
                       rng.choice((b"a", b"a", b"a", b"b")))
        script.append((src, msg))
    return script


def drive(endpoint, oracle, f, n, script):
    """Steps (sends, events, deliveries so far), sends, events and
    deliveries of the endpoint `endpoint(deliver)` of S0 among n servers,
    f of them faulty, fed `script`, and whether it held a delivered slot
    back (the reference keeps no `held`)."""
    ctx = FakeCtx(oracle, server(0), f=f, n_servers=n)
    delivered = []
    fifo = endpoint(lambda _ctx, origin, p: delivered.append((origin, p)))
    steps, held_back = [], False
    for src, msg in script:
        fifo.handle(ctx, src, msg)
        steps.append((len(ctx.sent), len(ctx.events), len(delivered)))
        held_back = held_back or bool(getattr(fifo, "held", None))
    return (steps, ctx.sent, ctx.events, delivered), held_back


def test_endpoint_matches_the_reference_on_random_scripts():
    """The endpoint that keeps only live slots, reading its servers and
    thresholds from its context, sends, emits and delivers as the one that
    kept every slot and was built with f and n, slots held back included,
    at f = 1 and f = 2."""
    for f, n in ((1, 4), (2, 7)):
        oracle = Oracle(population(n_servers=n))
        held_back = 0
        for trial in range(1000):
            script = fifo_script(random.Random(trial), n)
            got, held = drive(FifoBroadcast, oracle, f, n, script)
            want, _ = drive(partial(reference.FifoBroadcast, n, f), oracle,
                            f, n, script)
            assert got == want, (f, trial)
            held_back += held
        assert held_back > 600, f
