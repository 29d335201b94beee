"""Golden trace hash: the simulator's output bytes are pinned across commits.

test_determinism compares two runs in one process; this test compares against
a digest recorded from an earlier commit, so an optimization or refactor that
changes any send, delivery, verification or application event shows up here.
"""

import hashlib

import pytest
from conftest import bench_workloads, live_signup_f2

from batchcast.scenarios import (CORPUS, batching_limit, build_simulation,
                                 concurrent_signup, run_scenario)
from batchcast.simnet import ADVERSARIAL, GOOD_CASE, DelayPolicy, Scenario

GOLDEN_SHA256 = (
    "c2d4bb35614e3a3314a981d7025e50f0ce9b6c9fa64583939c9cdfeea14fcb33")
LIVE_SIGNUP_F2_SHA256 = (
    "59af2379f13129c3d7392060f9524061e6fa53043c837be7d71e8b9af5f35965")
SCHEDULER_TIMERS_SHA256 = (
    "cdbc4fa89122f129413c59a44c1ce9575417721db299d5216c5b15c893a30d11")
MULTI_ROUND_SHA256 = (
    "6602a75244d11f109a2058e260f5e6f48c3f9a06557542c3af14997669713039")
QUEUED_SUBMISSIONS_SHA256 = (
    "55af84bf13f9946f2ebe071ce0c5eb3a3d60d94265238112c73031b4f35c5195")
SLOW_SERVER_SIGNUP_SHA256 = (
    "eb791f9a3fbb199135a4395a856b35e69e02e0321673d27068bd614858e4a71e")
# the `trace_sha256` that `bench/run.py --seed 11` prints for each workload
BENCH_SEED_11_SHA256 = {
    "batch_large":
        "317695aeb84e75d3fc8c839d75d54740ac5fa746ab8950bd60a52e6100477a51",
    "corpus_seeds":
        "9b49660ac9e7c7601b28f41b532e605c83a146ee780068e73787183839846058",
    "rounds_steady":
        "0e37d5b2a777ea3fb9db0f1baf6d821b54c2555b2deacd792f441d340e12b811",
    "signup_live":
        "031701d1b65b681e0b3162d0bd3e14d5b8aa535308330991c0dc497964d5f46e",
}


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


def multi_round(adversarial: bool, n_clients: int = 8, rounds: int = 3,
                gap: int = 20) -> Scenario:
    """Every preloaded client broadcasts once per round, rounds `gap` ticks
    apart.  Adversarial: two brokers, the clients split between them, and
    1-3 tick delays."""
    broadcasts = [{"client": j,
                   "context": (r * n_clients + j).to_bytes(4, "big").hex(),
                   "message": ((r * n_clients + j) ^ 0x5A5A5A5A).to_bytes(
                       4, "big").hex(),
                   "at": gap * r}
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


def test_queued_submissions():
    """Six clients broadcast three contexts each at tick 0, so a broker
    holds submissions queued behind the ones a flush batches and re-arms
    its flush timer until every queue drains, which no other pin does."""
    h = hashlib.sha256()
    for adversarial in (False, True):
        for seed in (0, 7):
            sim = run_scenario(multi_round(adversarial, n_clients=6, gap=0),
                               seed=seed)
            trace = sim.trace_jsonl()
            assert trace.count('"submission_complete"') == 18
            h.update(trace.encode())
    assert h.hexdigest() == QUEUED_SUBMISSIONS_SHA256


def test_slow_server_signup():
    """Six clients sign up while S3 hears the other servers 9 ticks late, so
    S3 records a keycard's assigner before its FIFO log ranks the keycard
    and signs when the ranking arrives, which no other pin does."""
    h = hashlib.sha256()
    for seed in (0, 7):
        scenario = concurrent_signup()
        scenario.delay_policy = DelayPolicy(
            kind="uniform", min_delay=1, max_delay=3,
            overrides={"S0->S3": 9, "S1->S3": 9, "S2->S3": 9})
        sim = run_scenario(scenario, seed=seed)
        trace = sim.trace_jsonl()
        assert trace.count('"signup_complete"') == 6
        h.update(trace.encode())
    assert h.hexdigest() == SLOW_SERVER_SIGNUP_SHA256


@pytest.mark.parametrize("workload", sorted(BENCH_SEED_11_SHA256))
def test_bench_workload_traces(workload):
    """The benchmark's own runs, hashed as it hashes them: the digest of
    each simulation's trace digest.  `batch_large` is the one pinned run of
    a batch of 2,048 payloads, and `rounds_steady` the one of 20 rounds."""
    digest = hashlib.sha256()
    for make in bench_workloads()[workload](11):
        sim = build_simulation(make())
        sim.run_to_quiescence()
        digest.update(hashlib.sha256(sim.trace_jsonl().encode()).digest())
    assert digest.hexdigest() == BENCH_SEED_11_SHA256[workload]
