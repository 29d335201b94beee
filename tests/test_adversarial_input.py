"""Handlers survive arbitrary well-formed messages from arbitrary senders.

A Byzantine process may send any decodable message at any time; correct
state machines must drop nonsense without raising.
"""

import random

from batchcast.procs import broker, client, server
from batchcast.protocol import BrokerMachine, ClientMachine, ServerMachine
from batchcast.scenarios import good_case, preloaded_directory

from tests.test_wire import CTX, rand_message
from batchcast import wire


def everyone():
    return ([server(i) for i in range(4)] + [broker(i) for i in range(2)]
            + [client(i) for i in range(8)])


def test_machines_survive_message_fuzz(oracle, fake_ctx_factory):
    rng = random.Random(0xFACE)
    scenario = good_case(n_clients=8)
    preload = preloaded_directory(oracle, scenario)
    machines = [
        (ServerMachine(preload), server(0)),
        (BrokerMachine(), broker(0)),
        (ClientMachine(preloaded=preload[0]), client(0)),
    ]
    ctxs = []
    for machine, pid in machines:
        ctx = fake_ctx_factory(pid, n_brokers=2)
        machine.on_start(ctx)
        ctxs.append(ctx)
    if hasattr(machines[2][0], "broadcast"):
        machines[2][0].broadcast(ctxs[2], b"ctx", b"msg")
    senders = everyone()
    for _ in range(3000):
        msg = rand_message(rng)
        # exercise the serializer too: what arrives is what decoders produce
        msg = wire.deserialize(CTX, wire.serialize(CTX, msg))
        src = senders[rng.randrange(len(senders))]
        for (machine, pid), ctx in zip(machines, ctxs):
            machine.on_message(ctx, src, msg)


def test_machines_survive_timer_fuzz(oracle, fake_ctx_factory):
    rng = random.Random(0xFEED)
    machine = BrokerMachine()
    ctx = fake_ctx_factory(broker(0))
    for _ in range(200):
        tag = rng.choice([("flush",), ("reduce", rng.randbytes(32)),
                          ("committable", rng.randbytes(32))])
        machine.on_timer(ctx, tag)
    srv = ServerMachine()
    sctx = fake_ctx_factory(server(0))
    for _ in range(50):
        srv.on_timer(sctx, ("offer_totality", rng.randbytes(32), ()))
