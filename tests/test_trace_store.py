"""The trace as columns: rows read back, JSON lines, and what the GC sees.

`Trace.jsonl` formats lines from the columns with one template per key set;
the reference is `TraceEvent.to_json`, one encoder call per row.  These tests
hold the two byte-equal on every corpus run and on forged records built to
break a template: `%` in keys, kinds and values, JSON escapes, non-ASCII,
one kind under two key sets, and chunk boundaries.
"""

import gc

import pytest
from conftest import live_signup_f2

from batchcast import simnet
from batchcast.properties import check_trace
from batchcast.scenarios import CORPUS, batching_limit, run_scenario
from batchcast.simnet import Trace, TraceEvent


def reference_jsonl(rows) -> str:
    return "\n".join(ev.to_json() for ev in rows) + "\n"


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_jsonl_matches_the_row_encoder(name):
    for seed in range(4):
        sim = run_scenario(CORPUS[name](), seed=seed)
        assert sim.trace_jsonl() == reference_jsonl(sim.trace), (name, seed)


def test_live_signup_and_a_multi_chunk_batch_match_the_row_encoder():
    sim = run_scenario(live_signup_f2())
    assert sim.trace_jsonl() == reference_jsonl(sim.trace)
    sim = run_scenario(batching_limit(m=256, n_clients=256))
    assert len(sim.trace) > simnet._JSONL_CHUNK
    assert sim.trace_jsonl() == reference_jsonl(sim.trace)


ODD = ['%', '%s', '%%d', '%(x)s', '"', '\\', '\n', '\t', 'é', '日本',
       ' ', '\x00', '\ud800', '}{"', '']


def forged_records() -> list:
    name = "".join(ODD)
    records = [
        {"time": 0, "kind": "scenario", "name": name, "servers": 4,
         "brokers": 1, "clients": 2, "f": 1, "seed": 0},
        {"time": 0, "kind": "byzantine", "src": "C1"},
        {"time": 1, "kind": "signup"},                      # null src, dst
        {"time": 1, "kind": "send", "src": "C%s", "dst": "S\"0",
         "bytes_len": 7, "tag": "T%d\n"},
        {"time": 2, "kind": "dir_import", "src": "S0", "id": [0, 1],
         "keycard": "aa"},
        {"time": 2, "kind": "dir_import", "src": "S1", "id": [0, 2],
         "keycard": "bb", "cert": "ff"},
        {"time": 2, "kind": "dir_import", "src": "S2", "id": [0, 3],
         "keycard": "cc", "cert": None},
        {"time": 3, "kind": "broadcast", "src": "C0", "context": name,
         "message": "%s%%"},
        {"time": 4, "kind": "app_deliver", "src": "S0", "client": "é%s",
         "context": "\\\"", "message": "\n"},
        {"time": 5, "kind": "odd%s kind\né", "src": None, "dst": "S0",
         "zz": 1, "%": "%s", "%s": [1, "%d", None], "a\"b": {"k%": [{}]},
         "ü": 1.5, "big": 2 ** 70, "neg": -0.0, "t": True, "n": None,
         "e": [], "tiny": 1e-300},
        {"time": 6, "kind": "odd%s kind\né", "zz": "only one key"},
        {"time": 7, "kind": "odd%s kind\né"},
        {"time": 8, "kind": "timer_set", "src": "S0", "dst": "S0",
         "tag": "x", "ring": 9},
        {"time": 8, "kind": "timer_set", "src": "S0", "dst": "S0"},
        {"time": 9, "kind": "verify", "src": "S0", "tag": "verify",
         "bytes_len": 0, "note": name},
    ]
    return records


def test_forged_records_round_trip_through_the_store():
    records = forged_records()
    trace = Trace.of(records)
    rows = [TraceEvent.from_record(rec) for rec in records]
    assert list(trace) == rows
    assert [trace[i] for i in range(len(trace))] == rows
    assert trace[-1] == rows[-1]
    with pytest.raises(IndexError):
        trace[len(rows)]


@pytest.mark.parametrize("chunk", [1, 2, 3, 4096])
def test_forged_jsonl_matches_the_row_encoder(monkeypatch, chunk):
    monkeypatch.setattr(simnet, "_JSONL_CHUNK", chunk)
    records = forged_records() * 3
    trace = Trace.of(records)
    expected = reference_jsonl(TraceEvent.from_record(r) for r in records)
    assert trace.jsonl() == expected


def test_an_empty_trace_is_one_newline():
    assert Trace().jsonl() == reference_jsonl([]) == "\n"
    assert Trace.of([]).jsonl() == "\n"


def test_a_trace_is_taken_as_it_is_and_events_are_checked():
    sim = run_scenario(CORPUS["good_case"]())
    assert Trace.of(sim.trace) is sim.trace
    rows = list(sim.trace)
    copy = Trace.of(rows)
    assert copy is not sim.trace and list(copy) == rows
    assert check_trace(copy) == check_trace(sim.trace)
    rows[1] = TraceEvent(1, "broadcast", "C0", extra={"context": 5,
                                                      "message": "aa"})
    with pytest.raises(ValueError, match="'context' is not a string"):
        Trace.of(rows)


def test_select_merges_key_sets_in_row_order():
    trace = Trace.of(forged_records())
    rows = trace.select("dir_import", ("id", "cert", "keycard"))
    assert rows == [(4, "S0", (0, 1), None, "aa"),
                    (5, "S1", (0, 2), "ff", "bb"),
                    (6, "S2", (0, 3), None, "cc")]
    assert trace.select("signup") == [(2, None)]
    assert trace.select("no such kind", ("x",)) == []


def tracked_objects(root) -> int:
    """GC-tracked objects reachable from `root`, not counting types."""
    seen, stack, tracked = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if gc.is_tracked(obj):
            tracked += 1
            stack.extend(gc.get_referents(obj))
    return tracked


def count_trace_events() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is TraceEvent)


def test_the_trace_holds_no_object_per_record():
    before = count_trace_events()
    sim = run_scenario(batching_limit(m=256, n_clients=256))
    gc.collect()
    assert count_trace_events() == before
    trace = sim.trace
    # An array is tracked since it became a heap type (Python 3.10), but the
    # collector's walk over it reaches only its type, never a row.
    for column in (trace.time, trace.kind, trace.src, trace.dst,
                   trace.bytes_len, trace.tag):
        assert gc.get_referents(column) == [type(column)]
    imports = [side for side in trace._sides
               if trace.names[side.kind] == "dir_import"]
    assert imports and all(len(side.rows) for side in imports)
    for side in imports:
        assert gc.get_referents(side.rows) == [type(side.rows)]
        for column in side.cols:
            assert not any(map(gc.is_tracked, column))
    small = run_scenario(batching_limit(m=64, n_clients=64)).trace
    gc.collect()
    assert len(trace) > 3 * len(small)
    assert tracked_objects(trace) == tracked_objects(small)
