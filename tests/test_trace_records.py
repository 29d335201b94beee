"""Record forms: `TraceEvent` rows, their JSON, and the checks on input.

JSON is written only by `to_json` (and the store's columnar writer) and read
back only by `Trace.add_record`; these tests pin that the two are inverse,
that a trace checks the same in memory and from disk, that in-memory
post-processing never goes through JSON, and that `add_record` rejects every
field of the wrong JSON type before the checker reads it.
"""

import json

import pytest
from conftest import trace_of

from batchcast import metrics
from batchcast import trace as trace_module
from batchcast.properties import check_trace
from batchcast.scenarios import CORPUS, good_case, run_scenario
from batchcast.trace import Trace, TraceEvent, load_trace_file


@pytest.fixture(scope="module")
def corpus_traces():
    return {(name, seed): run_scenario(factory(), seed=seed).trace
            for name, factory in sorted(CORPUS.items()) for seed in (0, 3)}


def read_back(rec) -> TraceEvent:
    """The one row `add_record` writes for `rec`."""
    [ev] = trace_of([rec])
    return ev


def test_from_record_inverts_to_json(corpus_traces):
    for key, trace in corpus_traces.items():
        rows = list(trace)
        copy = trace_of(json.loads(ev.to_json()) for ev in rows)
        for i, (ev, back) in enumerate(zip(rows, copy, strict=True)):
            assert back == ev, (key, i)


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
    in_memory = check_trace(trace_of(trace))
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
    monkeypatch.setattr(trace_module, "parse_json", boom)
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
    trace = Trace()
    with pytest.raises(ValueError):
        trace.add_record(rec)
    assert not len(trace)


def test_load_trace_file_names_the_bad_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"time": 0, "kind": "signup"}\n\n{"time": 1}\n')
    with pytest.raises(ValueError, match="line 3"):
        load_trace_file(str(path))


# The event-specific keys the checker reads, one complete record per kind.
CHECKED_RECORDS = {
    "scenario": {"servers": 4, "brokers": 1, "clients": 1},
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
    assert set(CHECKED_RECORDS) == set(trace_module._EXTRA_KEYS)


@pytest.mark.parametrize("kind", sorted(CHECKED_RECORDS))
def test_from_record_requires_the_keys_the_checker_reads(kind):
    full = {"time": 1, "kind": kind, "src": "S0", **CHECKED_RECORDS[kind]}
    check_trace(trace_of([HEADER, full]))  # complete: the checker reads it
    for key in CHECKED_RECORDS[kind]:
        rec = {k: v for k, v in full.items() if k != key}
        with pytest.raises(ValueError, match=f"{kind} record without '{key}'"):
            Trace().add_record(rec)


# One value of the wrong JSON type per checked key; `cert` may be absent but
# must be a string or null when present.
WRONG_TYPES = {
    "scenario": {"servers": "4", "brokers": 1.0, "clients": None},
    "broadcast": {"context": ["aa"], "message": 1},
    "app_deliver": {"client": ["cc"], "context": {"a": 1}, "message": None},
    "dir_import": {"id": 5, "keycard": 7, "cert": ["ff"]},
    "dir_import_rejected": {"id": [0, "0"], "keycard": None, "cert": 3},
    "assigner_record": {"keycard": 1, "assigner": True},
    "fb_deliver": {"origin": "0", "seq": 0.5, "payload": 1},
}


def test_every_checked_key_has_a_wrong_type_case():
    assert {kind: set(keys) for kind, keys in WRONG_TYPES.items()} == {
        kind: {key for key, _ in keys}
        for kind, keys in trace_module._EXTRA_KEYS.items()}


@pytest.mark.parametrize("kind", sorted(WRONG_TYPES))
def test_from_record_checks_the_json_types_the_checker_reads(kind):
    full = {"time": 1, "kind": kind, "src": "S0", **CHECKED_RECORDS[kind]}
    types = dict(trace_module._EXTRA_KEYS[kind])
    for key, value in WRONG_TYPES[kind].items():
        with pytest.raises(ValueError, match=(
                f"{kind} record whose '{key}' is not {types[key]}")):
            Trace().add_record({**full, key: value})


@pytest.mark.parametrize("id_value", [[0], [0, 1, 2], [0, True],
                                      [0, 2 ** 63], (0, 1)])
def test_an_id_must_be_a_pair_of_integers(id_value):
    rec = {"time": 1, "kind": "dir_import", "src": "S0", "id": id_value,
           "keycard": "cc"}
    with pytest.raises(ValueError, match="'id' is not a pair of integers"):
        Trace().add_record(rec)


def test_a_directory_import_may_carry_a_null_cert_or_none():
    rec = {"time": 1, "kind": "dir_import", "src": "S0", "id": [0, 0],
           "keycard": "cc"}
    assert "cert" not in read_back(rec).extra
    assert read_back({**rec, "cert": None}).extra["cert"] is None
    assert read_back({**rec, "cert": "ff"}).extra["cert"] == "ff"


BASE_WRONG_TYPES = [
    ("src", ["C0"]), ("src", 0), ("dst", {"x": 1}), ("dst", False),
    ("tag", None), ("tag", 3), ("bytes_len", -1), ("bytes_len", True),
    ("bytes_len", "8"), ("bytes_len", 2 ** 63), ("bytes_len", 1.0),
]


def test_every_base_field_has_a_wrong_type_case():
    assert {key for key, _, _ in trace_module._BASE_TYPES} == {
        key for key, _ in BASE_WRONG_TYPES}


@pytest.mark.parametrize("key,value", BASE_WRONG_TYPES)
def test_from_record_checks_the_base_field_types(key, value):
    rec = {"time": 1, "kind": "signup", "src": "C0", key: value}
    with pytest.raises(ValueError, match=f"trace record whose '{key}' is not"):
        Trace().add_record(rec)


@pytest.mark.parametrize("time", [2 ** 63, -2 ** 63 - 1, 1.0])
def test_a_time_must_fit_the_time_column(time):
    with pytest.raises(ValueError, match="integer time"):
        Trace().add_record({"time": time, "kind": "signup"})


def test_base_fields_take_their_defaults():
    ev = read_back({"time": 2 ** 63 - 1, "kind": "signup"})
    assert (ev.src, ev.dst, ev.bytes_len, ev.tag) == (None, None, 0, "")
