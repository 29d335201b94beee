"""Shared fixtures: a standalone oracle population, a fake machine context
and the f = 2 live-signup scenario."""

import pytest

from batchcast.crypto import Oracle
from batchcast.procs import broker, client, server
from batchcast.simnet import ADVERSARIAL, DelayPolicy, Scenario


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


class FakeCtx:
    """Drives a single machine without a simulation: records sends/timers."""

    def __init__(self, oracle, pid, f=1, n_servers=4):
        self._oracle = oracle
        self.pid = pid
        self.f = f
        self.n_servers = n_servers
        self.now = 0
        self.sent = []      # (dst, msg)
        self.timers = []    # (tag, timeout)
        self.events = []    # (kind, extra)

    def send(self, dst, msg):
        self.sent.append((dst, msg))

    def set_timer(self, tag, timeout):
        self.timers.append((tag, timeout))

    def emit(self, kind, **extra):
        self.events.append((kind, extra))

    def keycard(self, pid=None):
        return self._oracle.keycard(pid if pid is not None else self.pid)

    def owner(self, keycard):
        return self._oracle.owner(keycard)

    def sign(self, statement):
        return self._oracle.sign(self.pid, statement)

    def multisign(self, statement):
        return self._oracle.multisign(self.pid, statement)

    def aggregate(self, msigs):
        return self._oracle.aggregate(msigs)

    def certify(self, shards):
        return self._oracle.certify(shards)

    def verify(self, keycard, statement, sig):
        return self._oracle.verify(self.pid, keycard, statement, sig)

    def verify_aggregate(self, keycards, statement, msig):
        return self._oracle.verify_aggregate(self.pid, keycards, statement,
                                             msig)

    def verify_certificate(self, cert, statement, threshold):
        return self._oracle.verify_certificate(self.pid, cert, statement,
                                               threshold, self.n_servers)

    def verify_plurality(self, cert, statement):
        return self.verify_certificate(cert, statement, self.f + 1)

    def verify_quorum(self, cert, statement):
        return self.verify_certificate(cert, statement, 2 * self.f + 1)


@pytest.fixture
def fake_ctx_factory(oracle):
    def make(pid, **kwargs):
        return FakeCtx(oracle, pid, **kwargs)
    return make
