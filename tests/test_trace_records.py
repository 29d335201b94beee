"""One record form: the checker and the ledger read `TraceEvent`s as they are.

JSON is written only by `to_json` and read back only by `from_record`; these
tests pin that the two are inverse, that a trace checks the same in memory
and from disk, and that in-memory post-processing never goes through JSON.
"""

import json

import pytest

from batchcast import metrics, simnet
from batchcast.properties import check_trace, load_trace_file
from batchcast.scenarios import CORPUS, good_case, run_scenario
from batchcast.simnet import TraceEvent


@pytest.fixture(scope="module")
def corpus_traces():
    return {(name, seed): run_scenario(factory(), seed=seed).trace
            for name, factory in sorted(CORPUS.items()) for seed in (0, 3)}


def test_from_record_inverts_to_json(corpus_traces):
    for key, trace in corpus_traces.items():
        for i, ev in enumerate(trace):
            assert TraceEvent.from_record(json.loads(ev.to_json())) == ev, \
                (key, i)


def write_jsonl(path, trace):
    path.write_text("".join(ev.to_json() + "\n" for ev in trace))
    return path


def test_in_memory_and_file_traces_check_the_same(corpus_traces, tmp_path):
    for (name, seed), trace in corpus_traces.items():
        path = write_jsonl(tmp_path / f"{name}-{seed}.jsonl", trace)
        assert check_trace(trace) == check_trace(load_trace_file(str(path)))


def test_counterexample_indexes_survive_the_file(tmp_path):
    trace = list(run_scenario(good_case(n_clients=4)).trace)
    delivers = [i for i, ev in enumerate(trace) if ev.kind == "app_deliver"]
    trace.append(trace[delivers[0]])    # a second delivery
    del trace[delivers[-1]]              # one server misses a payload
    in_memory = check_trace(trace)
    assert not in_memory["no_duplication"].ok
    assert not in_memory["totality"].ok
    path = write_jsonl(tmp_path / "forged.jsonl", trace)
    assert check_trace(load_trace_file(str(path))) == in_memory


def test_post_processing_never_round_trips_json(monkeypatch):
    scenario = good_case(n_clients=4)
    trace = run_scenario(scenario).trace

    def boom(*_args, **_kwargs):
        raise AssertionError("trace record went through JSON")

    monkeypatch.setattr(TraceEvent, "to_json", boom)
    monkeypatch.setattr(json, "loads", boom)
    assert all(v.ok for v in check_trace(trace).values())
    assert metrics.amortized_report(trace, scenario)["servers"]["S0"][
        "delivered"] == 4


@pytest.mark.parametrize("rec", [
    [1, 2],
    {"time": 0},
    {"kind": "send"},
    {"time": "0", "kind": "send"},
    {"time": True, "kind": "send"},
    {"time": 0, "kind": 5},
    {"time": 0, "kind": "scenario", "servers": 4, "clients": 1},
    {"time": 0, "kind": "scenario", "servers": 4, "brokers": "1",
     "clients": 1},
])
def test_from_record_rejects_malformed_records(rec):
    with pytest.raises(ValueError):
        TraceEvent.from_record(rec)


def test_load_trace_file_names_the_bad_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"time": 0, "kind": "signup"}\n\n{"time": 1}\n')
    with pytest.raises(ValueError, match="line 3"):
        load_trace_file(str(path))


# The event-specific keys the checker reads, one complete record per kind.
CHECKED_RECORDS = {
    "broadcast": {"context": "aa", "message": "01"},
    "app_deliver": {"client": "cc", "context": "aa", "message": "01"},
    "dir_import": {"id": [0, 0], "keycard": "cc"},
    "dir_import_rejected": {"id": [0, 0], "keycard": "cc"},
    "assigner_record": {"keycard": "cc", "assigner": 0},
    "fb_deliver": {"origin": 0, "seq": 0, "payload": "01"},
}
HEADER = {"time": 0, "kind": "scenario", "servers": 4, "brokers": 1,
          "clients": 1}


def test_every_checked_kind_has_a_record_case():
    assert set(CHECKED_RECORDS) == set(simnet._EXTRA_KEYS)


@pytest.mark.parametrize("kind", sorted(CHECKED_RECORDS))
def test_from_record_requires_the_keys_the_checker_reads(kind):
    full = {"time": 1, "kind": kind, "src": "S0", **CHECKED_RECORDS[kind]}
    check_trace([HEADER, full])  # complete: the checker reads it
    for key in CHECKED_RECORDS[kind]:
        rec = {k: v for k, v in full.items() if k != key}
        with pytest.raises(ValueError, match=f"{kind} record without '{key}'"):
            TraceEvent.from_record(rec)
