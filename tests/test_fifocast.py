"""FIFO reliable broadcast: validity, FIFO order, consistency, totality."""

from collections import Counter

from conftest import live_signup_f2

from batchcast import wire
from batchcast.fifocast import FifoBroadcast
from batchcast.procs import ProcessKind, server
from batchcast.scenarios import run_scenario
from batchcast.simnet import (ADVERSARIAL, GOOD_CASE, DelayPolicy, Machine,
                              Scenario, Simulation)
from batchcast.wire import FifoSend


class FifoNode(Machine):
    def __init__(self, n=4, f=1, broadcasts=()):
        self.broadcasts = list(broadcasts)
        self.delivered = []
        self.fifo = FifoBroadcast(n, f, self._deliver)

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
    """Echo and Ready sets are dropped at delivery, every payload variant
    included; late Echoes and Readys for a delivered slot add none back."""
    sim = run_scenario(live_signup_f2())
    fifos = [m.dir.fifo for pid, m in sim.machines.items()
             if pid.kind == ProcessKind.SERVER]
    assert fifos
    for fifo in fifos:
        assert fifo.done
        for slots in (fifo.echoes, fifo.readys):
            assert not {key[:2] for key in slots} & fifo.done  # (origin, seq)
        assert fifo.done <= fifo.ready_sent and fifo.done <= fifo.echoed
