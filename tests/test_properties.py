"""Checker self-tests: forged traces must fail, genuine traces must pass."""

import pytest
from conftest import trace_of

from batchcast.properties import ALL_PROPERTIES, check_trace, _keycard
from batchcast.scenarios import CORPUS, good_case, run_scenario
from batchcast.simnet import ADVERSARIAL, DelayPolicy


def header(servers=4, brokers=1, clients=4):
    return {"time": 0, "kind": "scenario", "src": None, "dst": None,
            "bytes_len": 0, "tag": "", "name": "forged", "servers": servers,
            "brokers": brokers, "clients": clients, "f": 1, "seed": 0,
            "payload_bits": 64, "synchrony": "good_case"}


def broadcast(t, client, context, message):
    return {"time": t, "kind": "broadcast", "src": client, "dst": None,
            "bytes_len": 0, "tag": "", "context": context, "message": message}


def deliver(t, srv, client_ordinal, context, message):
    return {"time": t, "kind": "app_deliver", "src": srv, "dst": None,
            "bytes_len": 0, "tag": "", "client": _keycard("C", client_ordinal),
            "context": context, "message": message}


def full_delivery(context, message, client_ordinal=0, servers=4):
    events = [broadcast(0, f"C{client_ordinal}", context, message)]
    events += [deliver(10, f"S{i}", client_ordinal, context, message)
               for i in range(servers)]
    return events


def test_genuine_traces_pass_everything():
    for name, factory in CORPUS.items():
        verdicts = check_trace(run_scenario(factory(), seed=4).trace)
        bad = {k: v.detail for k, v in verdicts.items() if not v.ok}
        assert not bad, (name, bad)


def test_one_stalling_server_passes_everything():
    """f = 1 and S3 never commits nor completes: the other three servers
    still deliver every payload."""
    for seed in range(5):
        scenario = good_case(n_clients=4)
        scenario.synchrony = ADVERSARIAL
        scenario.delay_policy = DelayPolicy(kind="uniform", max_delay=3)
        scenario.fault_script = {"S3": {"behavior": "stalling_server"}}
        trace = run_scenario(scenario, seed=seed).trace
        verdicts = check_trace(trace)
        assert all(v.ok for v in verdicts.values()), (seed, verdicts)
        delivered = {e.src for e in trace if e.kind == "app_deliver"}
        assert {"S0", "S1", "S2"} <= delivered


def test_conflicting_deliveries_fail_consistency():
    trace = [header()] + full_delivery("aa", "01")
    trace[-1] = deliver(10, "S3", 0, "aa", "02")  # S3 saw a different message
    verdicts = check_trace(trace_of(trace))
    assert not verdicts["consistency"].ok
    assert verdicts["consistency"].counterexample == len(trace) - 1


def test_truncated_trace_fails_totality():
    trace = [header()] + full_delivery("aa", "01")[:-1]  # S3 never delivers
    verdicts = check_trace(trace_of(trace))
    assert not verdicts["totality"].ok
    assert verdicts["consistency"].ok


def test_double_delivery_fails_no_duplication():
    trace = [header()] + full_delivery("aa", "01")
    trace.append(deliver(11, "S0", 0, "aa", "01"))
    assert not check_trace(trace_of(trace))["no_duplication"].ok


def test_unsolicited_delivery_fails_integrity():
    trace = [header()] + [deliver(10, f"S{i}", 0, "aa", "01")
                          for i in range(4)]
    assert not check_trace(trace_of(trace))["integrity"].ok


def test_corrupted_client_excused_from_integrity():
    trace = [header(),
             {"time": 0, "kind": "byzantine", "src": "C0", "dst": None,
              "bytes_len": 0, "tag": ""}]
    trace += [deliver(10, f"S{i}", 0, "aa", "01") for i in range(4)]
    verdicts = check_trace(trace_of(trace))
    assert verdicts["integrity"].ok
    assert verdicts["validity"].ok


def test_dropped_broadcast_fails_validity():
    trace = [header()] + full_delivery("aa", "01")
    trace.append(broadcast(12, "C1", "bb", "02"))  # never delivered
    assert not check_trace(trace_of(trace))["validity"].ok


def test_density_violation_detected():
    trace = [header()]
    trace.append({"time": 0, "kind": "dir_import", "src": "S0", "dst": None,
                  "bytes_len": 0, "tag": "", "id": [0, 99],
                  "keycard": _keycard("C", 0)})
    assert not check_trace(trace_of(trace))["density"].ok


def test_bijectivity_violation_detected():
    trace = [header()]
    for ident, card in ([0, 1], _keycard("C", 0)), ([0, 1], _keycard("C", 1)):
        trace.append({"time": 0, "kind": "dir_import", "src": "S0",
                      "dst": None, "bytes_len": 0, "tag": "", "id": ident,
                      "keycard": card})
    assert not check_trace(trace_of(trace))["dir_bijectivity"].ok


def test_signup_order_violation_detected():
    trace = [header()]
    trace.append({"time": 1, "kind": "signup_complete", "src": "C0",
                  "dst": None, "bytes_len": 0, "tag": "", "id": [0, 0]})
    trace.append({"time": 2, "kind": "signup", "src": "C0", "dst": None,
                  "bytes_len": 0, "tag": ""})
    verdicts = check_trace(trace_of(trace))
    assert not verdicts["signup_integrity"].ok


def dir_import(t, label, ident, card):
    return {"time": t, "kind": "dir_import", "src": label, "dst": None,
            "bytes_len": 0, "tag": "", "id": ident, "keycard": card}


def signup_with_import(import_event, import_first):
    """C0 signs up and completes; the import lands before or after that."""
    completion = {"time": 2, "kind": "signup_complete", "src": "C0",
                  "dst": None, "bytes_len": 0, "tag": "", "id": [0, 4]}
    trace = [header(), {"time": 1, "kind": "signup", "src": "C0",
                        "dst": None, "bytes_len": 0, "tag": ""}]
    if import_first:
        return trace + [import_event, completion]
    return trace + [completion, import_event]


def test_own_import_after_completion_fails_self_knowledge():
    trace = signup_with_import(dir_import(2, "C0", [0, 4], _keycard("C", 0)),
                               import_first=False)
    verdict = check_trace(trace_of(trace))["self_knowledge"]
    assert not verdict.ok
    assert verdict.counterexample == 2  # the completion


def test_import_by_another_label_fails_self_knowledge():
    for label, card in (("C1", _keycard("C", 0)), ("C0", _keycard("C", 1))):
        trace = signup_with_import(dir_import(2, label, [0, 4], card),
                                   import_first=True)
        assert not check_trace(trace_of(trace))["self_knowledge"].ok, label


def test_import_before_completion_passes_self_knowledge():
    trace = signup_with_import(dir_import(2, "C0", [0, 4], _keycard("C", 0)),
                               import_first=True)
    trace.append(dir_import(3, "C0", [0, 4], _keycard("C", 0)))  # repeat
    assert check_trace(trace_of(trace))["self_knowledge"].ok


def fb(t, srv, origin, seq, payload):
    return {"time": t, "kind": "fb_deliver", "src": srv, "dst": None,
            "bytes_len": 0, "tag": "", "origin": origin, "seq": seq,
            "payload": payload}


def test_fifo_split_slot_fails_consistency():
    trace = [header()]
    trace += [fb(1, "S0", 2, 0, "aa"), fb(1, "S1", 2, 0, "bb")]
    verdicts = check_trace(trace_of(trace))
    assert not verdicts["fifo_consistency"].ok


def test_fifo_missing_server_fails_totality():
    trace = [header()] + [fb(1, f"S{i}", 2, 0, "aa") for i in range(3)]
    assert not check_trace(trace_of(trace))["fifo_totality"].ok


def test_fifo_gap_fails_order():
    trace = [header(), fb(1, "S0", 2, 0, "aa"), fb(2, "S0", 2, 2, "bb")]
    assert not check_trace(trace_of(trace))["fifo_order"].ok


def test_fifo_replay_fails_no_duplication():
    trace = [header()] + [fb(1, f"S{i}", 2, 0, "aa") for i in range(4)]
    trace.append(fb(2, "S0", 2, 0, "aa"))
    assert not check_trace(trace_of(trace))["fifo_no_duplication"].ok


def test_all_properties_reported():
    verdicts = check_trace(trace_of([header()]))
    assert set(verdicts) == set(ALL_PROPERTIES)


def event(t, kind, src, **extra):
    return {"time": t, "kind": kind, "src": src, "dst": None,
            "bytes_len": 0, "tag": "", **extra}


def assigner(t, srv, card, who):
    return event(t, "assigner_record", srv, keycard=card, assigner=who)


def rejected(t, label, ident, card, cert):
    return event(t, "dir_import_rejected", label, id=ident, keycard=card,
                 cert=cert)


CARD0, CARD1 = _keycard("C", 0), _keycard("C", 1)
SIGNUP, COMPLETE = event(1, "signup", "C0"), event(2, "signup_complete", "C0")
OWN_IMPORT = dir_import(2, "C0", [0, 4], CARD0)

# (property, records after the header that violate it, index of the event it
# fails at, records after the header with the violation removed)
VIOLATIONS = [
    ("no_duplication",
     [deliver(10, "S0", 0, "aa", "01"), deliver(11, "S0", 0, "aa", "01")], 2,
     [deliver(10, "S0", 0, "aa", "01")]),
    ("consistency",
     [deliver(10, "S0", 0, "aa", "01"), deliver(10, "S1", 0, "aa", "02")], 2,
     [deliver(10, "S0", 0, "aa", "01"), deliver(10, "S1", 0, "aa", "01")]),
    ("integrity", [deliver(10, "S0", 0, "aa", "01")], 1,
     [broadcast(0, "C0", "aa", "01"), deliver(10, "S0", 0, "aa", "01")]),
    ("validity", [broadcast(0, "C0", "aa", "01")], 1,
     [broadcast(0, "C0", "aa", "01"), deliver(10, "S0", 0, "aa", "01")]),
    ("totality", full_delivery("aa", "01")[:-1], 4,
     full_delivery("aa", "01")),
    ("dir_bijectivity",
     [dir_import(0, "S0", [0, 1], CARD0), dir_import(0, "S0", [0, 1], CARD1)],
     2,
     [dir_import(0, "S0", [0, 1], CARD0), dir_import(0, "S0", [0, 2], CARD1)]),
    ("dir_bijectivity",
     [dir_import(0, "S0", [0, 1], CARD0), dir_import(0, "S0", [0, 2], CARD0)],
     2, [dir_import(0, "S0", [0, 1], CARD0)]),
    ("signup_integrity", [COMPLETE, SIGNUP], 1, [SIGNUP, COMPLETE]),
    ("signup_validity", [SIGNUP], 1, [SIGNUP, COMPLETE]),
    ("self_knowledge", [SIGNUP, COMPLETE], 2, [SIGNUP, OWN_IMPORT, COMPLETE]),
    ("transferability",
     [event(1, "dir_import", "S0", id=[0, 4], keycard=CARD0, cert="cc"),
      rejected(2, "S1", [0, 4], CARD0, "cc")], 2,
     [event(1, "dir_import", "S0", id=[0, 4], keycard=CARD0, cert="cc"),
      rejected(2, "S1", [0, 4], CARD0, "dd")]),
    ("density", [dir_import(0, "S0", [0, 9], CARD0)], 1,
     [dir_import(0, "S0", [0, 8], CARD0)]),
    ("write_once_assigner",
     [assigner(1, "S0", CARD0, 1), assigner(2, "S0", CARD0, 2)], 2,
     [assigner(1, "S0", CARD0, 1), assigner(2, "S0", CARD0, 1)]),
    ("fifo_consistency", [fb(1, "S0", 2, 0, "aa"), fb(1, "S1", 2, 0, "bb")], 2,
     [fb(1, "S0", 2, 0, "aa"), fb(1, "S1", 2, 0, "aa")]),
    ("fifo_totality", [fb(1, f"S{i}", 2, 0, "aa") for i in range(3)], 3,
     [fb(1, f"S{i}", 2, 0, "aa") for i in range(4)]),
    ("fifo_order", [fb(1, "S0", 2, 0, "aa"), fb(2, "S0", 2, 2, "bb")], 2,
     [fb(1, "S0", 2, 0, "aa"), fb(2, "S0", 2, 1, "bb")]),
    ("fifo_no_duplication", [fb(1, "S0", 2, 0, "aa"), fb(2, "S0", 2, 0, "aa")],
     2, [fb(1, "S0", 2, 0, "aa")]),
    # C3 writes no row; the header's client count alone makes its keycard
    # a correct client's
    ("integrity", [deliver(10, "S0", 3, "aa", "01")], 1,
     [broadcast(0, "C3", "aa", "01"), deliver(10, "S0", 3, "aa", "01")]),
]


def test_violation_table_covers_every_property():
    assert {name for name, *_ in VIOLATIONS} == set(ALL_PROPERTIES)


@pytest.mark.parametrize("name,bad,index,good", VIOLATIONS,
                         ids=[f"{v[0]}-{i}" for i, v in enumerate(VIOLATIONS)])
def test_each_property_fails_at_its_violation_and_passes_without(
        name, bad, index, good):
    verdict = check_trace(trace_of([header()] + bad))[name]
    assert (verdict.ok, verdict.counterexample) == (False, index)
    assert check_trace(trace_of([header()] + good))[name].ok
