"""Cost accounting: the report against its reference, verification
counters, reports."""

import json
from collections import Counter

import pytest

from batchcast import wire
from batchcast.crypto import Oracle
from batchcast.metrics import (DIRECTORY_TAGS, PAYLOAD_TAGS, amortized_report,
                               convergence_sweep, oracle_bound, sweep_csv)
from batchcast.scenarios import CORPUS, batching_limit, good_case, run_scenario

from conftest import bench_workloads, trace_of
from report_reference import reference_report


def test_oracle_bound_formula():
    assert oracle_bound(1024, 64) == 10 + 64
    assert oracle_bound(1000, 64) == 10 + 64
    assert oracle_bound(2, 8) == 9


def test_every_message_type_is_counted_in_one_column():
    """A new message type must join the protocol or the directory column."""
    assert not PAYLOAD_TAGS & DIRECTORY_TAGS
    assert PAYLOAD_TAGS | DIRECTORY_TAGS == {
        cls.__name__ for cls in wire.MESSAGE_TYPES}


def same_report(trace, scenario) -> bool:
    """The report equals the reference's, key order included."""
    return (json.dumps(amortized_report(trace, scenario))
            == json.dumps(reference_report(trace, scenario)))


@pytest.mark.parametrize("seed", range(10))
def test_report_matches_the_reference_on_the_corpus(seed):
    for name, factory in CORPUS.items():
        scenario = factory()
        sim = run_scenario(scenario, seed=seed)
        assert same_report(sim.trace, scenario), name


WORKLOADS = bench_workloads()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_report_matches_the_reference_on_the_workloads(workload):
    for make in WORKLOADS[workload](11, tiny=True):
        scenario = make()
        sim = run_scenario(scenario)
        assert same_report(sim.trace, scenario), scenario.name


def test_a_forged_tag_counts_nothing():
    """Rows whose tag names no message or verb, and a kind the report does
    not read, add nothing and raise nothing."""
    scenario = good_case(n_clients=2)
    sim = run_scenario(scenario)
    rows = list(sim.trace)
    forged = rows + [
        {"time": 99, "kind": "send", "src": "S0", "dst": "S1",
         "bytes_len": 5, "tag": "NoSuchMessage"},
        {"time": 99, "kind": "deliver", "src": "S0", "dst": "S1",
         "bytes_len": 5, "tag": "verify"},
        {"time": 99, "kind": "verify", "src": "S0", "dst": None,
         "bytes_len": 0, "tag": "BatchMsg"},
        {"time": 99, "kind": "verify", "src": "B0", "dst": None,
         "bytes_len": 0, "tag": "no_such_verb"},
    ]
    report = amortized_report(trace_of(forged), scenario)
    assert report == amortized_report(trace_of(rows), scenario)
    assert same_report(trace_of(forged), scenario)


def test_verification_counter_matches_oracle_calls(monkeypatch):
    calls = Counter()  # (caller, verb) -> oracle calls

    def counting(verb):
        method = getattr(Oracle, verb)

        def wrapper(oracle, caller, *args):
            calls[(caller, verb)] += 1
            return method(oracle, caller, *args)
        return wrapper

    for verb in ("verify", "verify_aggregate", "verify_certificate"):
        monkeypatch.setattr(Oracle, verb, counting(verb))
    sim = run_scenario(good_case(n_clients=4))
    report = amortized_report(sim.trace, good_case(n_clients=4))
    assert calls
    rows = {**report["servers"], **report["brokers"]}
    for label, row in rows.items():
        pid = next(p for p in sim.machines if p.label == label)
        expected = calls[(pid, "verify")] + calls[(pid, "verify_aggregate")]
        assert row["verifications"] == expected, label
        certs = calls[(pid, "verify_certificate")]
        assert row["certificate_checks"] == certs, label


def test_good_case_server_verifications_one_per_batch():
    scenario = good_case(n_clients=8)
    report = amortized_report(run_scenario(scenario).trace, scenario)
    for row in report["servers"].values():
        assert row["verifications"] == 1


def test_report_shape_and_degenerate_flag():
    sc = good_case(n_clients=2)
    sc.broadcasts = []
    sim = run_scenario(sc)
    report = amortized_report(sim.trace, sc)
    assert report["degenerate"]
    assert report["servers"]["S0"]["bits_per_payload"] is None
    assert report["sizes"]["multisig_bits"] == 384


def test_self_sends_cost_nothing():
    scenario = good_case(n_clients=2)
    sim = run_scenario(scenario)
    s0 = [e for e in sim.trace if e.kind in ("send", "deliver")
          and e.tag in PAYLOAD_TAGS
          and (e.src if e.kind == "send" else e.dst) == "S0"]
    self_offers = [e for e in s0 if e.src == e.dst == "S0"
                   and e.tag == "OfferTotality"]
    assert self_offers  # servers offer to themselves on the wire
    # but the report never counts them
    bits = amortized_report(sim.trace, scenario)["servers"]["S0"][
        "protocol_bits"]
    assert bits == sum(8 * e.bytes_len for e in s0 if e.src != e.dst)
    assert bits < sum(8 * e.bytes_len for e in s0)
    assert same_report(sim.trace, scenario)


def test_unbatched_run_is_expensive():
    # M = 1: constants dominate, far above the oracle bound (reported only)
    sc = batching_limit(m=1, n_clients=1024)
    sim = run_scenario(sc)
    report = amortized_report(sim.trace, sc)
    assert report["servers"]["S0"]["bits_per_payload"] > \
        5 * report["oracle_bound"]


def test_sweep_rows_and_csv():
    rows = convergence_sweep([4, 16], n_clients=64)
    assert [r["m"] for r in rows] == [4, 16]
    assert all(r["oracle_bound"] == rows[0]["oracle_bound"] for r in rows)
    assert rows[1]["overhead"] < rows[0]["overhead"]
    text = sweep_csv(rows)
    assert text.splitlines()[0].startswith("m,bits_per_payload")
    assert len(text.splitlines()) == 3
