"""Golden trace hash: the simulator's output bytes are pinned across commits.

test_determinism compares two runs in one process; this test compares against
a digest recorded from an earlier commit, so an optimization or refactor that
changes any send, delivery, verification or application event shows up here.
"""

import hashlib

from conftest import live_signup_f2

from batchcast.scenarios import CORPUS, batching_limit, run_scenario
from batchcast.simnet import ADVERSARIAL

GOLDEN_SHA256 = (
    "c2d4bb35614e3a3314a981d7025e50f0ce9b6c9fa64583939c9cdfeea14fcb33")
LIVE_SIGNUP_F2_SHA256 = (
    "59af2379f13129c3d7392060f9524061e6fa53043c837be7d71e8b9af5f35965")
SCHEDULER_TIMERS_SHA256 = (
    "cdbc4fa89122f129413c59a44c1ce9575417721db299d5216c5b15c893a30d11")


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
