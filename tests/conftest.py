"""Shared fixtures: a standalone oracle population, a fake machine context,
the f = 2 live-signup scenario, forged traces and the benchmark's
workloads."""

import importlib.util
import json
from pathlib import Path

import pytest

from batchcast.crypto import Oracle
from batchcast.procs import broker, client, server
from batchcast.simnet import (ADVERSARIAL, Context, DelayPolicy, Scenario,
                              Simulation)
from batchcast.trace import Trace, TraceEvent


BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_workloads() -> dict:
    """The benchmark's workloads, read from its file."""
    spec = importlib.util.spec_from_file_location("workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def trace_of(records) -> Trace:
    """A `Trace` of forged `records`, each a record dict or a `TraceEvent`
    row (read back through its JSON), written by `Trace.add_record` one by
    one, as `load_trace_file` writes a file's lines."""
    trace = Trace()
    for rec in records:
        trace.add_record(json.loads(rec.to_json())
                         if isinstance(rec, TraceEvent) else rec)
    return trace


def live_signup_f2() -> Scenario:
    """f = 2 (N = 7), 8 clients signing up live under 1-3 tick delays."""
    broadcasts = [{"client": j, "context": j.to_bytes(4, "big").hex(),
                   "message": (j ^ 0x5A5A5A5A).to_bytes(4, "big").hex(),
                   "at": 0}
                  for j in range(8)]
    return Scenario(name="live_signup_f2", n_servers=7, fault_bound=2,
                    n_brokers=1, n_clients=8, synchrony=ADVERSARIAL,
                    delay_policy=DelayPolicy(kind="uniform", min_delay=1,
                                             max_delay=3),
                    timer_policy="timeout", preload_directory=False,
                    broadcasts=broadcasts, seed=3)


def population(n_servers=4, n_brokers=2, n_clients=8):
    return ([server(i) for i in range(n_servers)]
            + [broker(i) for i in range(n_brokers)]
            + [client(i) for i in range(n_clients)])


@pytest.fixture
def oracle():
    return Oracle(population())


class FakeCtx(Context):
    """Drives a single machine without running a simulation: records sends,
    timers and emitted events; the crypto facade is `Context`'s own, on a
    simulation of no machines over `oracle`."""

    def __init__(self, oracle, pid, f=1, n_servers=4, n_brokers=1):
        scenario = Scenario(name="fake", n_servers=n_servers, fault_bound=f,
                            n_brokers=n_brokers, n_clients=0)
        super().__init__(Simulation(scenario, {}, oracle), pid)
        self.sent = []      # (dst, msg)
        self.timers = []    # (tag, timeout)
        self.events = []    # (kind, extra)

    def send(self, dst, msg):
        self.sent.append((dst, msg))

    def send_all(self, dsts, msg):
        self.sent.extend((dst, msg) for dst in dsts)

    def set_timer(self, tag, timeout):
        self.timers.append((tag, timeout))

    def emit(self, kind, **extra):
        self.events.append((kind, extra))

    def emit_rows(self, kind, **columns):
        self.events.extend((kind, dict(zip(columns, row)))
                           for row in zip(*columns.values()))


@pytest.fixture
def fake_ctx_factory(oracle):
    def make(pid, **kwargs):
        return FakeCtx(oracle, pid, **kwargs)
    return make
