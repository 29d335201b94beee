"""The trace as columns: rows read back, JSON lines, and what the GC sees.

`Trace.jsonl` writes lines from the columns with one generated f-string
writer per key set; the reference is `TraceEvent.to_json`, one encoder call
per row.  These tests hold the two byte-equal on every corpus run and on
forged records built to break a generated writer: `%`, braces, quotes and
Python expressions in keys, kinds and values, JSON escapes, non-ASCII, one
kind under two key sets, more key sets than the writer cache holds, and
chunk boundaries.  They also pin that a key reaches a writer's source only
as its JSON text.
"""

import ast
import gc
from json.encoder import encode_basestring_ascii

import pytest
from conftest import live_signup_f2, trace_of

from batchcast import simnet
from batchcast import trace as trace_module
from batchcast.metrics import amortized_report
from batchcast.properties import check_trace
from batchcast.scenarios import (CORPUS, batching_limit, build_simulation,
                                 run_scenario)
from batchcast.trace import Trace, TraceEvent


def reference_jsonl(rows) -> str:
    return "\n".join(ev.to_json() for ev in rows) + "\n"


def row_of(rec) -> TraceEvent:
    """The row a valid record stands for, built without the store."""
    base = {k: v for k, v in rec.items() if k in trace_module._BASE_KEYS}
    return TraceEvent(**base, extra={k: v for k, v in rec.items()
                                     if k not in trace_module._BASE_KEYS})


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_jsonl_matches_the_row_encoder(name):
    for seed in range(4):
        sim = run_scenario(CORPUS[name](), seed=seed)
        assert sim.trace_jsonl() == reference_jsonl(sim.trace), (name, seed)


def test_live_signup_and_a_multi_chunk_batch_match_the_row_encoder():
    sim = run_scenario(live_signup_f2())
    assert sim.trace_jsonl() == reference_jsonl(sim.trace)
    sim = run_scenario(batching_limit(m=256, n_clients=256))
    assert len(sim.trace) > trace_module._JSONL_CHUNK
    assert sim.trace_jsonl() == reference_jsonl(sim.trace)


# strings that would be code, or end a literal, in a writer's source
HOSTILE = ['{v0}', '{N[0]}', '{{', '}}', "'", "'''", '"""', r'\N{BULLET}',
           '\N{BULLET}', "{__import__('os').getpid()}"]
ODD = ['%', '%s', '%%d', '%(x)s', '"', '\\', '\n', '\t', 'é', '日本',
       ' ', '\x00', '\ud800', '}{"', '', *HOSTILE]


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
        {"time": 10, "kind": "odd keys", **{key: key for key in ODD}},
    ]
    return records


def test_forged_records_round_trip_through_the_store():
    records = forged_records()
    trace = trace_of(records)
    rows = [row_of(rec) for rec in records]
    assert list(trace) == rows


@pytest.mark.parametrize("chunk", [1, 2, 3, 4096])
def test_forged_jsonl_matches_the_row_encoder(monkeypatch, chunk):
    monkeypatch.setattr(trace_module, "_JSONL_CHUNK", chunk)
    records = forged_records() * 3
    trace = trace_of(records)
    expected = reference_jsonl(map(row_of, records))
    assert "".join(trace.jsonl()) == expected


def test_a_writer_source_holds_keys_only_as_json_text():
    keys = tuple(sorted(trace_module._BASE_KEYS + tuple(HOSTILE)))
    tree = ast.parse(trace_module._line_source(keys))
    (write,) = tree.body
    assert isinstance(write, ast.FunctionDef) and write.name == "write"
    own = {f"{c}{i}" for c in "cv" for i in range(len(keys))}
    assert {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)} == {"N", "zip", *own}
    assert not any(isinstance(node, ast.Attribute) for node in ast.walk(tree))
    (line,) = [node for node in ast.walk(tree)
               if isinstance(node, ast.JoinedStr)]
    texts = [encode_basestring_ascii(key) for key in keys]
    assert [part.value for part in line.values
            if isinstance(part, ast.Constant)] == (
        [f"{{{texts[0]}:"] + [f",{text}:" for text in texts[1:]] + ["}"])


def test_each_key_set_compiles_once():
    writer = trace_module._line_writer
    writer.cache_clear()
    sims = [run_scenario(CORPUS[name]()) for name in sorted(CORPUS)[:2]]
    for sim in sims * 2:
        assert sim.trace_jsonl() == reference_jsonl(sim.trace)
    key_sets = {tuple(sorted(trace_module._BASE_KEYS + side.keys))
                for sim in sims for side in sim.trace._sides}
    key_sets.add(tuple(sorted(trace_module._BASE_KEYS)))
    assert writer.cache_info().misses == len(key_sets)


def test_more_key_sets_than_the_cache_holds_are_written_right():
    bound = trace_module._line_writer.cache_parameters()["maxsize"]
    records = [{"time": i, "kind": "many", f"k{i}": i}
               for i in range(bound + 10)]
    trace = trace_of(records)
    assert "".join(trace.jsonl()) == reference_jsonl(map(row_of, records))
    assert trace_module._line_writer.cache_info().currsize <= bound


@pytest.mark.parametrize("key", ["src", "dst", "bytes_len", "tag", "time"])
def test_an_event_key_naming_a_base_field_is_refused(key):
    sim = run_scenario(CORPUS["good_case"]())
    ctx = sim._by_rank[0]
    rows = len(sim.trace)
    with pytest.raises(ValueError, match=repr(key)):
        ctx.emit("note", **{key: "x"})
    assert len(sim.trace) == rows
    assert sim.trace_jsonl() == reference_jsonl(sim.trace)


def _prefixed(before: int) -> Trace:
    """A trace of `before` rows written by `add`, each with a side entry."""
    trace = Trace()
    for i in range(before):
        trace.add(i, "signup", trace.code("C0"), 0, i, 0,
                  {ODD[i % len(ODD)]: ODD[-i % len(ODD)]} if i % 3 else {})
    return trace


def _odd_columns(k: int) -> dict:
    """A column per key of `ODD`, of k values: `ODD`'s strings, copied so
    that only interning makes them one object, with integers, None and
    pairs in some columns."""
    pool = [*ODD, 7, None, (1, 2)]
    return {key: [(v + "!")[:-1] if type(v) is str else v
                  for v in (pool[(i + j) % (len(ODD) + 3 * (j % 2))]
                            for i in range(k))]
            for j, key in enumerate(ODD)}


def _trace_state(trace: Trace) -> tuple:
    """What a reader sees of `trace`, and its sides' keys."""
    return (len(trace), "".join(trace.jsonl()), list(trace), trace.names,
            trace.select("app_deliver"), trace.select("odd keys"),
            [(side.kind, side.keys) for side in trace._sides])


@pytest.mark.parametrize("k", [0, 1, 2, 1023, 1024, 1025, 4097])
@pytest.mark.parametrize("before", [0, 1000, 4090])
def test_extend_writes_what_one_add_per_row_writes(k, before):
    """One `extend` of k rows, starting before a pending flush or a JSON
    lines chunk boundary, against k `add` calls given the same objects.
    Each holds one object per distinct string, the one it was first given:
    `ODD`'s own once the prefix wrote them (which of two equal strings first
    given in one `extend` it keeps may differ from `add`'s)."""
    columns = [("odd keys", _odd_columns(k)),
               ("app_deliver", {key: [ODD[(i + n) % len(ODD)]
                                      for i in range(k)]
                                for n, key in enumerate(
                                    ("message", "client", "context"))})]
    rows, added = _prefixed(before), _prefixed(before)
    code = rows.code("S0")
    assert added.code("S0") == code
    for kind, cols in columns:
        rows.extend(9, kind, code, cols)
        assert len(rows.pending) < trace_module._PENDING_BYTES
        for values in zip(*cols.values()):
            added.add(9, kind, code, trace_module.NULL, 0, trace_module.NO_TAG,
                      dict(zip(cols, values)))
    for trace in rows, added:
        trace.add(10, "odd keys", code, 0, 0, 0, {ODD[0]: ODD[1]})
    assert len(rows) == before + 2 * k + 1
    assert _trace_state(rows) == _trace_state(added)
    for trace in rows, added:
        held = [v for side in trace._sides for col in side.cols for v in col
                if type(v) is str]
        assert len({*map(id, held)}) == len({*held})
        assert all(trace._strings[v] is v for v in held)
        if before:
            assert all(v is ODD[ODD.index(v)] for v in held)


@pytest.mark.parametrize("before", [0, 1000])
def test_extend_refuses_a_base_field_key_before_writing(before):
    trace = _prefixed(before)
    state = _trace_state(trace)
    with pytest.raises(ValueError, match="'tag'"):
        trace.extend(9, "note", 0, {"zz": [1, 2], "tag": ["a", "b"]})
    assert _trace_state(trace) == state


def test_an_empty_trace_is_one_newline():
    assert "".join(Trace().jsonl()) == reference_jsonl([]) == "\n"


def test_rows_written_back_check_the_same_and_are_checked():
    sim = run_scenario(CORPUS["good_case"]())
    rows = list(sim.trace)
    copy = trace_of(rows)
    assert copy is not sim.trace and list(copy) == rows
    assert check_trace(copy) == check_trace(sim.trace)
    rows[1] = TraceEvent(1, "broadcast", "C0", extra={"context": 5,
                                                      "message": "aa"})
    with pytest.raises(ValueError, match="'context' is not a string"):
        trace_of(rows)


def test_select_merges_key_sets_in_row_order():
    trace = trace_of(forged_records())
    rows = trace.select("dir_import")
    assert rows == [(4, "S0", (0, 1), "aa", None),
                    (5, "S1", (0, 2), "bb", "ff"),
                    (6, "S2", (0, 3), "cc", None)]
    assert list(trace.scan("dir_import")) == rows
    assert trace.select("signup") == [(2, None)]
    assert trace.select("no such kind") == []
    assert list(trace.scan("no such kind")) == []


def test_select_gives_the_declared_keys_in_declared_order():
    """Unchecked keys, such as the header's name, are written but never
    selected; a kind the schema does not declare selects (row, src)."""
    trace = trace_of(forged_records())
    assert trace.select("scenario") == [(0, None, 4, 1, 2)]
    assert trace.select("broadcast") == [(7, "C0", "".join(ODD), "%s%%")]
    assert trace.select("odd%s kind\né") == [(9, None), (10, None),
                                             (11, None)]


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
    # the shared side strings sit in a dict of strings only
    assert trace._strings and not gc.is_tracked(trace._strings)
    small = run_scenario(batching_limit(m=64, n_clients=64)).trace
    gc.collect()
    assert len(trace) > 3 * len(small)
    assert tracked_objects(trace) == tracked_objects(small)
    # rows still pending are bytes in one untracked buffer
    for _ in range(1000):
        trace.pending += trace_module._pack_row(9, 0, trace_module.VERIFY,
                                                0, 0, 0)
    assert trace.pending and not gc.is_tracked(trace.pending)
    assert count_trace_events() == before
    assert tracked_objects(trace) == tracked_objects(small)


@pytest.mark.parametrize("m", [64, 256])
def test_each_string_side_value_is_held_once(m):
    """Per client: its keycard, its payload's context and message, and the
    fingerprint of its certificate; and the scenario's name and synchrony."""
    trace = run_scenario(batching_limit(m=m, n_clients=m)).trace
    values = [v for side in trace._sides for column in side.cols
              for v in column if type(v) is str]
    assert len(values) > 20 * m
    assert len({*map(id, values)}) == len({*values}) == 4 * m + 2


def test_reads_in_the_middle_of_a_run_leave_the_trace_whole(monkeypatch):
    """Rows read while a run still appends (the cost report, `select`, rows,
    JSON lines, columns) are a prefix of the finished trace, which still equals its
    records and an unread run's; pending rows stay within one flush size
    plus the rows of one dispatch."""
    expected = run_scenario(live_signup_f2()).trace_jsonl()
    for module in (simnet, trace_module):  # the event loop reads it by name
        monkeypatch.setattr(module, "_PENDING_BYTES",
                            7 * trace_module._ROW.size)
    scenario = live_signup_f2()
    sim = build_simulation(scenario)
    trace = sim.trace
    sim.start()
    snapshots = []
    steps = seen_pending = 0
    while sim._queue:
        before = len(trace)
        sim.step()
        steps += 1
        written = (len(trace) - before) * trace_module._ROW.size
        assert len(trace.pending) < trace_module._PENDING_BYTES + written
        if steps % 1009 == 0:
            pending = len(trace.pending)
            report = amortized_report(trace, scenario)
            rows = list(trace)
            assert report == amortized_report(trace_of(rows), scenario)
            seen_pending += pending > 0
            assert len(rows) == len(trace) and not trace.pending
            assert trace.select("fb_deliver") == [
                (i, ev.src, ev.extra["origin"], ev.extra["seq"],
                 ev.extra["payload"]) for i, ev in enumerate(rows)
                if ev.kind == "fb_deliver"]
            snapshots.append(("".join(trace.jsonl()), trace.time.tolist()))
            assert snapshots[-1][0] == reference_jsonl(rows)
    trace.flush()
    assert len(snapshots) > 5 and seen_pending
    final = "".join(trace.jsonl())
    assert final == expected == reference_jsonl(trace)
    for text, times in snapshots:
        assert final.startswith(text)
        assert trace.time[:len(times)].tolist() == times
