"""Golden trace hash: the simulator's output bytes are pinned across commits.

test_determinism compares two runs in one process; this test compares against
a digest recorded from an earlier commit, so an optimization or refactor that
changes any send, delivery, verification or application event shows up here.
"""

import hashlib

from batchcast.scenarios import CORPUS, batching_limit, run_scenario
from batchcast.simnet import ADVERSARIAL, DelayPolicy, Scenario

GOLDEN_SHA256 = (
    "c2d4bb35614e3a3314a981d7025e50f0ce9b6c9fa64583939c9cdfeea14fcb33")
LIVE_SIGNUP_F2_SHA256 = (
    "59af2379f13129c3d7392060f9524061e6fa53043c837be7d71e8b9af5f35965")


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
    broadcasts = [{"client": j, "context": j.to_bytes(4, "big").hex(),
                   "message": (j ^ 0x5A5A5A5A).to_bytes(4, "big").hex(),
                   "at": 0}
                  for j in range(8)]
    scenario = Scenario(name="live_signup_f2", n_servers=7, fault_bound=2,
                        n_brokers=1, n_clients=8, synchrony=ADVERSARIAL,
                        delay_policy=DelayPolicy(kind="uniform", min_delay=1,
                                                 max_delay=3),
                        timer_policy="timeout", preload_directory=False,
                        broadcasts=broadcasts, seed=3)
    sim = run_scenario(scenario)
    assert hashlib.sha256(sim.trace_jsonl().encode()).hexdigest() == (
        LIVE_SIGNUP_F2_SHA256)
