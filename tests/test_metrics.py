"""Cost accounting: ledger completeness, verification counters, reports."""

from collections import Counter

from batchcast import wire
from batchcast.crypto import Oracle
from batchcast.metrics import (DIRECTORY_TAGS, PAYLOAD_TAGS, CostLedger,
                               amortized_report, convergence_sweep,
                               oracle_bound, sweep_csv)
from batchcast.procs import server
from batchcast.scenarios import CORPUS, batching_limit, good_case, run_scenario


def test_oracle_bound_formula():
    assert oracle_bound(1024, 64) == 10 + 64
    assert oracle_bound(1000, 64) == 10 + 64
    assert oracle_bound(2, 8) == 9


def ledger_balanced(trace) -> bool:
    """Every bit sent between distinct processes is eventually received."""
    ledger = CostLedger.from_trace(trace)
    return sum(ledger.egress.values()) == sum(ledger.ingress.values())


def test_every_message_type_is_counted_in_one_column():
    """A new message type must join the protocol or the directory column."""
    assert not PAYLOAD_TAGS & DIRECTORY_TAGS
    assert PAYLOAD_TAGS | DIRECTORY_TAGS == {
        cls.__name__ for cls, _ in wire._SPECS}


def test_ledger_balanced_on_corpus():
    for name, factory in CORPUS.items():
        sim = run_scenario(factory(), seed=2)
        assert ledger_balanced(sim.trace), name


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
    ledger = CostLedger.from_trace(sim.trace)
    assert calls
    for i in range(4):
        pid = server(i)
        expected = calls[(pid, "verify")] + calls[(pid, "verify_aggregate")]
        assert ledger.verifications.get(f"S{i}", 0) == expected
        certs = calls[(pid, "verify_certificate")]
        assert ledger.cert_checks.get(f"S{i}", 0) == certs


def test_good_case_server_verifications_one_per_batch():
    sim = run_scenario(good_case(n_clients=8))
    ledger = CostLedger.from_trace(sim.trace)
    for i in range(4):
        assert ledger.verifications.get(f"S{i}", 0) == 1


def test_report_shape_and_degenerate_flag():
    sc = good_case(n_clients=2)
    sc.broadcasts = []
    sim = run_scenario(sc)
    report = amortized_report(sim.trace, sc)
    assert report["degenerate"]
    assert report["servers"]["S0"]["bits_per_payload"] is None
    assert report["sizes"]["multisig_bits"] == 384


def test_self_sends_cost_nothing():
    sim = run_scenario(good_case(n_clients=2))
    ledger = CostLedger.from_trace(sim.trace)
    offers = [e for e in sim.trace if e.kind == "send"
              and e.tag == "OfferTotality"]
    self_offers = [e for e in offers if e.src == e.dst]
    assert self_offers  # servers offer to themselves on the wire
    # but the ledger never books them
    total = sum(v for (who, tag), v in ledger.egress.items()
                if tag == "OfferTotality")
    non_self = sum(8 * e.bytes_len for e in offers if e.src != e.dst)
    assert total == non_self


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
