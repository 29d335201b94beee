"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import random
import time

from batchcast.encoding import (partition_encoded_len, partition_size,
                                read_varint, write_varint)
from batchcast.metrics import amortized_report, convergence_sweep
from batchcast.properties import check_trace
from batchcast.scenarios import (CORPUS, async_slow_server, batching_limit,
                                 equivocating_client, good_case, run_scenario)

from test_encoding import partition_roundtrip, roundtrip_with_tail


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {name} {detail}")
    assert ok, f"{name}: {detail}"


def test_encoding_exactness():
    rng = random.Random(0xACC)
    t0 = time.time()
    for _ in range(10_000):
        width = rng.randint(1, 32)
        n = rng.randrange(2 ** width)
        tail = [rng.randrange(2) for _ in range(rng.randint(0, 8))]
        assert roundtrip_with_tail(lambda w: w.write_uint(width, n),
                                   lambda r: r.read_uint(width), tail) == n
        m = rng.randint(1, 2 ** 32)
        assert roundtrip_with_tail(lambda w: write_varint(w, m), read_varint,
                                   tail) == m
    for _ in range(10_000):
        domains = list(range(rng.randint(1, 5)))
        mu = {}
        for d in domains:
            k = rng.randint(0, 4)
            if k:
                mu[d] = set(rng.sample(range(1, 2049), k))
        if not mu:
            mu[domains[0]] = {rng.randint(1, 2048)}
        expected = partition_encoded_len(
            partition_size(mu), max(max(v) for v in mu.values()),
            len(domains))
        assert partition_roundtrip(mu, domains) == (mu, expected)
    # worked closed-form example: |X|=4, |mu|=8, max=1023 -> 110 bits
    mu = {0: {5, 1023}, 1: {0, 7}, 2: {3, 9}, 3: {2, 500}}
    assert partition_roundtrip(mu, [0, 1, 2, 3]) == (mu, 110)
    elapsed = time.time() - t0
    report("encoding exactness", elapsed < 5.0,
           f"(20k round-trips bit-identical, formula exact, {elapsed:.2f}s)")


def test_amortized_communication():
    t0 = time.time()
    scenario = batching_limit(m=1024, n_clients=1024)
    sim = run_scenario(scenario)
    rep = amortized_report(sim.trace, scenario)
    elapsed = time.time() - t0
    bound = rep["oracle_bound"]
    assert bound == 74  # ceil(log2 1024) + 64
    cap = 1.15 * bound
    worst_bits = max(r["bits_per_payload"] for r in rep["servers"].values())
    worst_verif = max(r["verifications_per_payload"]
                      for r in rep["servers"].values())
    ok = worst_bits <= cap and worst_verif <= 1 / 1024 and elapsed < 30
    report("amortized communication", ok,
           f"(bits/payload {worst_bits:.2f} <= {cap:.1f}, "
           f"verifications/payload {worst_verif:.6f} <= {1/1024:.6f}, "
           f"{elapsed:.1f}s)")


def test_convergence():
    rows = convergence_sweep([16, 64, 256, 1024], n_clients=1024)
    overheads = [r["overhead"] for r in rows]
    decreasing = all(a > b for a, b in zip(overheads, overheads[1:]))
    ratio = overheads[0] / overheads[-1]
    constant_bound = len({r["oracle_bound"] for r in rows}) == 1
    report("convergence", decreasing and ratio >= 10 and constant_bound,
           f"(overheads {[round(o, 1) for o in overheads]}, "
           f"shrink x{ratio:.0f})")


def test_latency():
    sim = run_scenario(good_case(n_clients=4))
    submission = min(e.time for e in sim.trace
                     if e.kind == "send" and e.tag == "Submission")
    first = min(e.time for e in sim.trace if e.kind == "app_deliver")
    fast_ok = first - submission == 10

    slow_sim = run_scenario(async_slow_server())
    sub2 = min(e.time for e in slow_sim.trace
               if e.kind == "send" and e.tag == "Submission")
    slow = min(e.time for e in slow_sim.trace
               if e.kind == "app_deliver" and e.src == "S3")
    via_totality = any(e.kind == "deliver" and e.tag == "Totality"
                       and e.dst == "S3" and e.time <= slow
                       for e in slow_sim.trace)
    commit_before = any(e.kind == "deliver" and e.tag == "Commit"
                        and e.dst == "S3" and e.src == "B0"
                        and e.time <= slow for e in slow_sim.trace)
    # 13 unit message legs plus the 7-tick totality offer timer
    slow_ok = (slow - sub2 == 13 + 7) and via_totality and not commit_before
    report("latency", fast_ok and slow_ok,
           f"(fast +{first - submission} ticks, "
           f"slow +{slow - sub2} = 13 legs + 7 wait, via totality)")


def test_safety_suite():
    failures = []
    runs = 0
    t0 = time.time()
    for name, factory in sorted(CORPUS.items()):
        for seed in range(100):
            sim = run_scenario(factory(), seed=seed)
            verdicts = check_trace(sim.trace)
            runs += 1
            for prop, v in verdicts.items():
                if not v.ok:
                    failures.append((name, seed, prop, v.detail))
    report("safety suite", not failures,
           f"({runs} runs x {len(verdicts)} properties, "
           f"{len(failures)} violations, {time.time() - t0:.0f}s)")


def test_exception_soundness():
    scenario = equivocating_client(n_clients=4)
    sim = run_scenario(scenario)
    equivocator_id = [3, 0]  # client 3 under preloaded dense ids
    raised = [e for e in sim.trace if e.kind == "exception"
              and e.extra["id"] == equivocator_id
              and e.src.startswith("S") and e.src != "S3"]
    accepted = [e for e in sim.trace if e.kind == "exception_accepted"
                and e.extra["id"] == equivocator_id]
    excluded_message = "bbbbbbbb"
    delivered_msgs = {e.extra["message"] for e in sim.trace
                      if e.kind == "app_deliver"}
    correct_ok = True
    for entry in scenario.broadcasts:
        for i in range(4):
            seen = any(e.kind == "app_deliver" and e.src == f"S{i}"
                       and e.extra["context"] == entry["context"]
                       and e.extra["message"] == entry["message"]
                       for e in sim.trace)
            correct_ok = correct_ok and seen
    ok = (bool(raised) and bool(accepted)
          and excluded_message not in delivered_msgs and correct_ok)
    report("exception soundness", ok,
           f"({len(raised)} correct-server exceptions, "
           f"{len(accepted)} accepted by the broker, "
           f"conflicting payload excluded, correct clients delivered)")


def test_determinism():
    ok = True
    for name, factory in sorted(CORPUS.items()):
        a = run_scenario(factory(), seed=2024).trace_jsonl()
        b = run_scenario(factory(), seed=2024).trace_jsonl()
        ok = ok and a == b
    report("determinism", ok, f"({len(CORPUS)} scenarios byte-identical)")
