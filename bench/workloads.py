"""The benchmark's workloads.

Each workload maps a seed to the list of simulations that make up one
repetition, as zero-argument callables that return a fresh `Scenario`. In the
good-case workloads the seed picks the payload bytes; in the adversarial ones
it is the scheduler seed. The reasons for each choice are in README.md.
"""

from __future__ import annotations

import random
from functools import partial

from batchcast import scenarios
from batchcast.simnet import ADVERSARIAL, GOOD_CASE, DelayPolicy, Scenario

BATCH_LARGE_M = 2048
ROUNDS_CLIENTS = 256
ROUNDS = 20
ROUND_TICKS = 20
CORPUS_SEEDS_PER_REPETITION = 10
SIGNUP_CLIENTS = 24
SIGNUP_SIMULATIONS = 3


def _message(rng: random.Random) -> str:
    return rng.getrandbits(32).to_bytes(4, "big").hex()


def _batch_large(seed: int, m: int) -> Scenario:
    scenario = scenarios.batching_limit(m=m, n_clients=m)
    rng = random.Random(seed)
    for entry in scenario.broadcasts:
        entry["message"] = _message(rng)
    scenario.seed = seed
    return scenario


def _rounds_steady(seed: int, n_clients: int, rounds: int) -> Scenario:
    rng = random.Random(seed)
    broadcasts = [{"client": j,
                   "context": (r * n_clients + j).to_bytes(4, "big").hex(),
                   "message": _message(rng),
                   "at": r * ROUND_TICKS}
                  for r in range(rounds) for j in range(n_clients)]
    return Scenario(name="rounds_steady", n_servers=4, fault_bound=1,
                    n_brokers=1, n_clients=n_clients, synchrony=GOOD_CASE,
                    broadcasts=broadcasts, seed=seed)


def _corpus_entry(factory, seed: int) -> Scenario:
    scenario = factory()
    scenario.seed = seed
    return scenario


def _signup_live(seed: int, n_clients: int) -> Scenario:
    broadcasts = [{"client": j, "context": j.to_bytes(4, "big").hex(),
                   "message": (j ^ 0x5A5A5A5A).to_bytes(4, "big").hex(),
                   "at": 0}
                  for j in range(n_clients)]
    return Scenario(name="signup_live", n_servers=7, fault_bound=2,
                    n_brokers=1, n_clients=n_clients, synchrony=ADVERSARIAL,
                    delay_policy=DelayPolicy(kind="uniform", min_delay=1,
                                             max_delay=3),
                    timer_policy="timeout", preload_directory=False,
                    broadcasts=broadcasts, seed=seed)


def batch_large(seed: int, tiny: bool = False) -> list:
    return [partial(_batch_large, seed, 16 if tiny else BATCH_LARGE_M)]


def rounds_steady(seed: int, tiny: bool = False) -> list:
    n_clients, rounds = (8, 2) if tiny else (ROUNDS_CLIENTS, ROUNDS)
    return [partial(_rounds_steady, seed, n_clients, rounds)]


def corpus_seeds(seed: int, tiny: bool = False) -> list:
    factories = list(scenarios.CORPUS.values())
    # tiny: the last two, with Byzantine servers and clients and live signup
    factories, k = ((factories[-2:], 1) if tiny
                    else (factories, CORPUS_SEEDS_PER_REPETITION))
    return [partial(_corpus_entry, factory, seed * k + i)
            for i in range(k) for factory in factories]


def signup_live(seed: int, tiny: bool = False) -> list:
    n_clients, k = (2, 1) if tiny else (SIGNUP_CLIENTS, SIGNUP_SIMULATIONS)
    return [partial(_signup_live, seed * k + i, n_clients) for i in range(k)]


WORKLOADS = {
    "batch_large": batch_large,
    "rounds_steady": rounds_steady,
    "corpus_seeds": corpus_seeds,
    "signup_live": signup_live,
}
