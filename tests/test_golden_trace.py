"""Golden trace hash: the simulator's output bytes are pinned across commits.

test_determinism compares two runs in one process; this test compares against
a digest recorded from an earlier commit, so an optimization or refactor that
changes any send, delivery, verification or application event shows up here.
"""

import hashlib

from conftest import live_signup_f2

from batchcast.scenarios import CORPUS, batching_limit, run_scenario
from batchcast.simnet import ADVERSARIAL, GOOD_CASE, DelayPolicy, Scenario

GOLDEN_SHA256 = (
    "c2d4bb35614e3a3314a981d7025e50f0ce9b6c9fa64583939c9cdfeea14fcb33")
LIVE_SIGNUP_F2_SHA256 = (
    "59af2379f13129c3d7392060f9524061e6fa53043c837be7d71e8b9af5f35965")
SCHEDULER_TIMERS_SHA256 = (
    "cdbc4fa89122f129413c59a44c1ce9575417721db299d5216c5b15c893a30d11")
MULTI_ROUND_SHA256 = (
    "6602a75244d11f109a2058e260f5e6f48c3f9a06557542c3af14997669713039")


def test_golden_trace_hash():
    h = hashlib.sha256()
    for name in sorted(CORPUS):
        for seed in (0, 7):
            sim = run_scenario(CORPUS[name](), seed=seed)
            h.update(sim.trace_jsonl().encode())
    sim = run_scenario(batching_limit(m=256, n_clients=256))
    h.update(sim.trace_jsonl().encode())
    assert h.hexdigest() == GOLDEN_SHA256


def test_live_signup_f2():
    """f = 2 (N = 7), 8 clients signing up live under 1-3 tick delays.

    No corpus scenario has seven servers, so this is the one pinned run in
    which the directory's FIFO broadcast echoes every message to six peers.
    """
    sim = run_scenario(live_signup_f2())
    assert hashlib.sha256(sim.trace_jsonl().encode()).hexdigest() == (
        LIVE_SIGNUP_F2_SHA256)


def test_scheduler_timer_policy():
    """Every adversarial corpus scenario with the scheduler picking timer
    rings: rings then land at seeded ticks and race deliveries, which the
    timeout policy never makes them do."""
    h = hashlib.sha256()
    for name in sorted(CORPUS):
        for seed in (0, 7):
            scenario = CORPUS[name]()
            if scenario.synchrony != ADVERSARIAL:
                continue
            scenario.timer_policy = "scheduler"
            sim = run_scenario(scenario, seed=seed)
            h.update(sim.trace_jsonl().encode())
    assert h.hexdigest() == SCHEDULER_TIMERS_SHA256


def multi_round(adversarial: bool, n_clients: int = 8,
                rounds: int = 3) -> Scenario:
    """Every preloaded client broadcasts once per round, rounds 20 ticks
    apart.  Adversarial: two brokers, the clients split between them, and
    1-3 tick delays."""
    broadcasts = [{"client": j,
                   "context": (r * n_clients + j).to_bytes(4, "big").hex(),
                   "message": ((r * n_clients + j) ^ 0x5A5A5A5A).to_bytes(
                       4, "big").hex(),
                   "at": 20 * r}
                  for r in range(rounds) for j in range(n_clients)]
    if not adversarial:
        return Scenario(name="multi_round", n_servers=4, fault_bound=1,
                        n_brokers=1, n_clients=n_clients, synchrony=GOOD_CASE,
                        broadcasts=broadcasts)
    return Scenario(name="multi_round_adversarial", n_servers=4,
                    fault_bound=1, n_brokers=2, n_clients=n_clients,
                    synchrony=ADVERSARIAL,
                    delay_policy=DelayPolicy(kind="uniform", min_delay=1,
                                             max_delay=3),
                    broadcasts=broadcasts,
                    broker_order={j: [j % 2, 1 - j % 2]
                                  for j in range(n_clients)})


def test_multi_round():
    """Three rounds of eight broadcasts: completions retire submissions
    and servers keep batches, messages and deliveries across rounds, which
    no one-broadcast-per-client pin covers."""
    h = hashlib.sha256()
    for adversarial in (False, True):
        for seed in (0, 7):
            sim = run_scenario(multi_round(adversarial), seed=seed)
            trace = sim.trace_jsonl()
            assert trace.count('"submission_complete"') == 24
            h.update(trace.encode())
    assert h.hexdigest() == MULTI_ROUND_SHA256
