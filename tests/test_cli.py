"""Runner flags, exit codes, and emitted artifacts."""

import json
import time
from pathlib import Path

import pytest

from batchcast import crypto, scenarios, simnet
from batchcast.cli import main
from batchcast.properties import _keycard
from batchcast.scenarios import good_case, run_scenario, scenario_to_json
from batchcast.simnet import PROCESS_BOUNDS, TICK_BOUND

SCENARIOS_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def write_scenario(tmp_path, scenario):
    path = tmp_path / f"{scenario.name}.json"
    path.write_text(scenario_to_json(scenario))
    return path


def test_run_good_case_exits_zero(tmp_path, capsys):
    path = write_scenario(tmp_path, good_case(n_clients=2))
    out = tmp_path / "out"
    assert main(["--scenario", str(path), "--seed", "5",
                 "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.startswith("PASS") for line in lines if line)
    report = json.loads((out / "good_case.report.json").read_text())
    assert report["seed"] == 5
    assert report["metrics"]["servers"]["S0"]["delivered"] == 2
    assert (out / "good_case.trace.jsonl").exists()


def test_check_only_roundtrip(tmp_path):
    path = write_scenario(tmp_path, good_case(n_clients=2))
    out = tmp_path / "out"
    assert main(["--scenario", str(path), "--out", str(out)]) == 0
    trace = out / "good_case.trace.jsonl"
    assert main(["--check-only", str(trace)]) == 0


def test_trace_file_is_written_chunk_by_chunk(tmp_path, monkeypatch):
    """The trace file holds `trace_jsonl()`'s text, written from the chunks
    of JSON lines as they are formatted, never joined into one string."""
    monkeypatch.setattr(simnet, "_JSONL_CHUNK", 5)
    expected = run_scenario(good_case(n_clients=2), seed=5).trace_jsonl()
    jsonl, made = simnet.Trace.jsonl, []

    def chunks(trace):
        for chunk in jsonl(trace):
            made.append(chunk)
            yield chunk

    monkeypatch.setattr(simnet.Trace, "jsonl", chunks)
    monkeypatch.delattr(simnet.Simulation, "trace_jsonl")
    path = write_scenario(tmp_path, good_case(n_clients=2))
    out = tmp_path / "out"
    assert main(["--scenario", str(path), "--seed", "5",
                 "--out", str(out)]) == 0
    text = (out / "good_case.trace.jsonl").read_text()
    assert text == expected == "".join(made)
    assert len(made) == -(-text.count("\n") // 5) > 1


def test_trace_write_that_fails_midway_exits_2(tmp_path, monkeypatch,
                                               capsys):
    def failing(_trace):
        yield "{}\n"
        raise OSError("No space left on device")

    monkeypatch.setattr(simnet.Trace, "jsonl", failing)
    path = write_scenario(tmp_path, good_case(n_clients=2))
    assert main(["--scenario", str(path), "--out",
                 str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: cannot write output: No space left on device\n")


def test_check_only_flags_forged_trace(tmp_path, capsys):
    forged = [
        {"time": 0, "kind": "scenario", "src": None, "dst": None,
         "bytes_len": 0, "tag": "", "servers": 4, "brokers": 1, "clients": 1,
         "f": 1, "seed": 0, "payload_bits": 64, "name": "x",
         "synchrony": "good_case"},
        {"time": 1, "kind": "app_deliver", "src": "S0", "dst": None,
         "bytes_len": 0, "tag": "", "client": _keycard("C", 0),
         "context": "aa", "message": "01"},
        {"time": 1, "kind": "app_deliver", "src": "S1", "dst": None,
         "bytes_len": 0, "tag": "", "client": _keycard("C", 0),
         "context": "aa", "message": "02"},
    ]
    path = tmp_path / "forged.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in forged) + "\n")
    assert main(["--check-only", str(path)]) == 1
    assert "FAIL consistency" in capsys.readouterr().out


def test_check_only_header_at_the_process_bound_checks_quickly(tmp_path):
    """The checker hashes a keycard per process the header counts; a header
    over a count's bound in `PROCESS_BOUNDS` is malformed (see below)."""
    path = tmp_path / "header.jsonl"
    path.write_text(json.dumps({"time": 0, "kind": "scenario",
                                **PROCESS_BOUNDS}))
    t0 = time.perf_counter()
    assert main(["--check-only", str(path)]) == 0
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize("line", [
    "[1,2]",
    '{"time":0}',
    '{"time":0,"kind":"scenario","servers":4,"clients":1}',
    '{"time":0,"kind":',
    '{"time":0,"kind":"scenario","servers":100000000,"brokers":1,"clients":1}',
], ids=["not_an_object", "no_kind", "header_without_brokers", "bad_json",
        "header_over_process_bound"])
def test_check_only_malformed_trace_exits_2(tmp_path, capsys, line):
    path = tmp_path / "malformed.jsonl"
    path.write_text(line + "\n")
    assert main(["--check-only", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: malformed trace: line 1:")
    assert captured.out == ""


@pytest.mark.parametrize("text", [
    "",
    '{"time":0,"kind":"signup","src":"C0"}\n'
    '{"time":0,"kind":"scenario","servers":4,"brokers":1,"clients":1}\n',
], ids=["empty", "header_on_line_2"])
def test_check_only_trace_without_a_leading_header_exits_2(tmp_path, capsys,
                                                           text):
    """With no header the checker would count no servers, and every
    property would hold vacuously."""
    path = tmp_path / "headless.jsonl"
    path.write_text(text)
    assert main(["--check-only", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: malformed trace: line 1: the first "
                            "record is not a scenario header\n")
    assert captured.out == ""


def test_check_only_record_without_an_event_key_exits_2(tmp_path, capsys):
    path = tmp_path / "no_client.jsonl"
    path.write_text(
        '{"time":0,"kind":"scenario","servers":4,"brokers":1,"clients":1}\n'
        '{"time":0,"kind":"app_deliver","src":"S0"}\n')
    assert main(["--check-only", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: malformed trace: line 2: app_deliver "
                            "record without 'client'\n")
    assert captured.out == ""


HEADER_LINE = ('{"time":0,"kind":"scenario","servers":4,"brokers":1,'
               '"clients":1}')


@pytest.mark.parametrize("line,message", [
    ('{"time":0,"kind":"dir_import","src":"S0","id":5,"keycard":"aa"}',
     "dir_import record whose 'id' is not a pair of integers"),
    ('{"time":0,"kind":"broadcast","src":["C0"],"context":"aa",'
     '"message":"bb"}',
     "trace record whose 'src' is not a string or null"),
], ids=["dir_import_int_id", "broadcast_list_src"])
def test_check_only_wrong_typed_field_exits_2(tmp_path, capsys, line,
                                              message):
    path = tmp_path / "wrong_type.jsonl"
    path.write_text(HEADER_LINE + "\n" + line + "\n")
    assert main(["--check-only", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: malformed trace: line 2: {message}\n"
    assert captured.out == ""


def test_check_only_undecodable_byte_names_its_line(tmp_path, capsys):
    path = tmp_path / "latin1.jsonl"
    path.write_bytes(HEADER_LINE.encode() + b"\n"
                     + b'{"time":0,"kind":"signup","src":"C\xff"}\n')
    assert main(["--check-only", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: malformed trace: line 2: 'utf-8' codec can't decode byte "
        "0xff in position 34: invalid start byte\n")
    assert captured.out == ""


@pytest.mark.parametrize("flag,error", [
    ("--check-only", "malformed trace: line 1"),
    ("--scenario", "invalid scenario"),
    ("--sweep", "invalid sweep spec"),
])
def test_deeply_nested_json_exits_2(tmp_path, capsys, flag, error):
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000 + "]" * 200_000 + "\n")
    assert main([flag, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {error}: JSON nested too deeply\n"
    assert captured.out == ""


@pytest.mark.parametrize("line", [
    '{"time":0,"kind":"signup_complete","src":"X"}',
    '{"time":0,"kind":"signup_complete","src":"Z1"}',
    '{"time":0,"kind":"signup"}\n{"time":1,"kind":"signup","src":"C0"}',
    '{"time":0,"kind":"signup_complete"}',
], ids=["label_X", "label_Z1", "null_and_C0_signup", "null_completion"])
def test_check_only_non_process_label_gets_a_verdict(tmp_path, capsys, line):
    path = tmp_path / "labels.jsonl"
    path.write_text(HEADER_LINE + "\n" + line + "\n")
    assert main(["--check-only", str(path)]) == 1
    captured = capsys.readouterr()
    assert "FAIL signup_" in captured.out
    assert captured.err == ""


def test_sweep_writes_csv(tmp_path, capsys):
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"m_values": [4, 16], "clients": 64}))
    out = tmp_path / "out"
    assert main(["--sweep", str(spec), "--out", str(out)]) == 0
    text = (out / "sweep.csv").read_text()
    assert text.startswith("m,bits_per_payload,oracle_bound")
    assert len(text.strip().splitlines()) == 3


def test_output_path_that_is_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    scenario = SCENARIOS_DIR / "good_case.json"
    assert main(["--scenario", str(scenario), "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write output: ")


def test_sweep_output_path_that_is_a_file_exits_2(tmp_path, capsys):
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"m_values": [4], "clients": 4}))
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["--sweep", str(spec), "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write output: ")


def test_write_corpus_to_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["--write-corpus", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write output: ")
    assert taken.read_text() == ""


@pytest.mark.parametrize("spec,key", [
    ({"m_values": [0], "clients": 8}, "m_values[0]"),
    ({"m_values": "ab", "clients": 8}, "m_values"),
    ([1], "sweep spec is not an object"),
    ({"m_values": [4], "client": 8}, "'client'"),
    ({"m_values": [16], "clients": 8}, "m_values must not exceed clients"),
    ({"m_values": [4], "clients": 8, "payload_bits": 128}, "'payload_bits'"),
], ids=["m_zero", "m_string", "not_an_object", "misspelled_clients",
        "m_above_clients", "payload_bits"])
def test_invalid_sweep_spec_exits_2(tmp_path, capsys, spec, key):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    assert main(["--sweep", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: invalid sweep spec: ")
    assert key in captured.err


def _client_99(doc):
    doc["broadcasts"].append(dict(doc["broadcasts"][0], client=99))


# one-key edits of the bundled good_case.json, with the key or label each
# error must name
SCENARIO_PROBES = {
    "name_out_of_out": (lambda d: d.update(name="../escaped"),
                        "name must be a string without '/' or NUL"),
    "name_with_nul": (lambda d: d.update(name="good\0case"),
                      "name must be a string without '/' or NUL"),
    "fault_scrpit": (lambda d: d.update(fault_scrpit={}), "'fault_scrpit'"),
    "broadcast_client_99": (_client_99, "broadcasts"),
    "max_events": (lambda d: d.update(max_events=10), "'max_events'"),
    "timer_policy": (lambda d: d.update(timer_policy="bogus"),
                     "timer_policy"),
    "delay_kind": (lambda d: d["delay_policy"].update(kind="bogus"),
                   "delay_policy.kind"),
    "fault_label_X9": (lambda d: d.update(
        fault_script={"X9": {"behavior": "silent_broker"}}), "'X9'"),
    "seed_string": (lambda d: d.update(seed="x"), "seed"),
    # keys of settings no longer taken
    "payload_bits": (lambda d: d.update(payload_bits=-1),
                     "unknown key 'payload_bits'"),
    "batching_window": (lambda d: d.update(batching_window=-5),
                        "unknown key 'batching_window'"),
    "synchrony": (lambda d: d.update(synchrony="bogus"), "synchrony"),
    "servers_string": (lambda d: d.update(servers="4"), "servers"),
    "min_above_max": (lambda d: d["delay_policy"].update(
        kind="uniform", min_delay=5, max_delay=1), "min_delay"),
    "broker_order": (lambda d: d.update(broker_order={"0": [7]}),
                     "broker_order"),
    "equivocator_without_keys": (lambda d: d.update(
        fault_script={"C7": {"behavior": "equivocating_client"}}),
        "fault_script.C7"),
    "context_not_hex": (lambda d: d["broadcasts"][0].update(context="zz"),
                        "broadcasts[0]"),
    "override_string": (lambda d: d["delay_policy"].update(
        overrides={"B0->S3": "x"}), "B0->S3"),
    "behavior_of_other_kind": (lambda d: d.update(
        fault_script={"S0": {"behavior": "silent_broker"}}),
        "fault_script.S0"),
    "unknown_behavior": (lambda d: d.update(
        fault_script={"S0": {"behavior": "bogus"}}), "fault_script.S0"),
    "target_id_of_one": (lambda d: d.update(fault_script={"S3": {
        "behavior": "false_exception_server", "target_id": [0]}}),
        "fault_script.S3.target_id"),
    # tick counts past TICK_BOUND, which would overflow the trace's columns
    "min_delay_2_62": (lambda d: d["delay_policy"].update(
        kind="uniform", min_delay=2 ** 62, max_delay=2 ** 63),
        "delay_policy.min_delay"),
    "max_delay_2_63": (lambda d: d["delay_policy"].update(
        kind="uniform", min_delay=1, max_delay=2 ** 63),
        "delay_policy.max_delay"),
    "constant_value_10_30": (lambda d: d["delay_policy"].update(
        kind="constant", value=10 ** 30),
        "unknown key 'delay_policy.value'"),
    "timer_skew_max_2_70": (lambda d: d.update(
        timer_policy="scheduler", timer_skew_max=2 ** 70),
        "unknown key 'timer_skew_max'"),
    "batching_window_2_63": (lambda d: d.update(batching_window=2 ** 63),
                             "unknown key 'batching_window'"),
    "at_2_63": (lambda d: d["broadcasts"][0].update(at=2 ** 63),
                "broadcasts[0].at"),
    "at_minus_7": (lambda d: d["broadcasts"][1].update(at=-7),
                   "broadcasts[1].at"),
    # counts and faults outside the model
    "negative_counts": (lambda d: d.update(fault_bound=-1, servers=-2),
                        "fault_bound must be at least 0"),
    "no_brokers": (lambda d: d.update(brokers=0), "brokers"),
    "two_faulty_servers": (lambda d: d.update(fault_script={
        "S1": {"behavior": "stalling_server"},
        "S2": {"behavior": "stalling_server"}}), "fault_script"),
    "repeated_client_context": (lambda d: d["broadcasts"].append(dict(
        d["broadcasts"][0], message="01020304", at=100)), "broadcasts"),
    # settings a good-case run would ignore
    "good_case_uniform_delays": (lambda d: d["delay_policy"].update(
        kind="uniform", min_delay=5, max_delay=9), "delay_policy"),
    "good_case_scheduler_timers": (lambda d: d.update(
        timer_policy="scheduler"), "timer_policy"),
    "constant_of_3": (lambda d: d.update(synchrony="adversarial") or d[
        "delay_policy"].update(min_delay=3, max_delay=3),
        "delay_policy needs min_delay <= max_delay, 1 if constant"),
    "override_2_32_plus_1": (lambda d: d["delay_policy"].update(
        overrides={"B0->S3": 2 ** 32 + 1}), "delay_policy.overrides.B0->S3"),
}


@pytest.mark.parametrize("edit,key", SCENARIO_PROBES.values(),
                         ids=SCENARIO_PROBES.keys())
def test_edited_good_case_exits_2_naming_the_key(tmp_path, capsys, edit,
                                                  key):
    assert key in _invalid_edit(tmp_path, capsys, "good_case", edit)


def _invalid_edit(tmp_path, capsys, name, edit) -> str:
    """The error of `--scenario` on the bundled `name`.json after `edit`,
    which must exit 2 before printing anything else."""
    doc = json.loads((SCENARIOS_DIR / f"{name}.json").read_text())
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    assert main(["--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: invalid scenario: ")
    assert captured.out == ""
    return captured.err


def _spec(label, **keys):
    """An edit that sets `keys` in the fault-script entry of `label`."""
    return lambda doc: doc["fault_script"][label].update(keys)


def _one_broker(doc):
    doc["brokers"] = 1
    del doc["broker_order"]


# edits of other bundled files: (file, edit, the names the error must hold)
CROSS_KEY_PROBES = {
    "payload_bits_128": ("good_case", lambda d: d["broadcasts"][1].update(
        message=d["broadcasts"][1]["message"] * 4),
        ("broadcasts[1]", "64 bits", "broadcasts[0]")),
    "equivocator_with_one_broker": ("equivocating_client", _one_broker,
                                    ("fault_script.C3", "brokers")),
    "censored_client_99": ("censoring_broker", lambda d: d["fault_script"][
        "B0"].update(censored=[99]), ("fault_script.B0.censored", "clients")),
    "target_id_9_9": ("byzantine_server_false_exception", lambda d: d[
        "fault_script"]["S3"].update(target_id=[9, 9]),
        ("fault_script.S3.target_id", "servers")),
    # in range, but no preloaded client holds the id: the run would go on
    # with S3 signing honest commits
    "target_id_0_3": ("byzantine_server_false_exception", lambda d: d[
        "fault_script"]["S3"].update(target_id=[0, 3]),
        ("fault_script.S3.target_id", "clients")),
    "target_id_1_1": ("byzantine_server_false_exception", lambda d: d[
        "fault_script"]["S3"].update(target_id=[1, 1]),
        ("fault_script.S3.target_id", "clients")),
    # ids are assigned during the run, so none can be checked before it
    "target_id_signing_up": ("byzantine_server_false_exception", lambda d: d[
        "fault_script"]["S3"].update(target_id=[1, 3]) or d.update(
        preload_directory=False),
        ("fault_script.S3.target_id", "preload_directory")),
    "equivocator_signing_up": ("equivocating_client", lambda d: d.update(
        preload_directory=False), ("fault_script.C3", "preload_directory")),
    "equivocator_with_a_broadcast": ("equivocating_client", lambda d: d[
        "broadcasts"].append(dict(client=3, context="00000003",
                                  message="5a5a5a59", at=0)),
        ("fault_script.C3", "broadcasts")),
    # one payload twice is no equivocation: no exception would be exercised
    "equivocator_repeating_a_message": ("equivocating_client", _spec(
        "C3", messages=["aaaaaaaa", "aaaaaaaa"]),
        ("fault_script.C3.messages", "different")),
    "equivocator_repeating_a_message_in_capitals": (
        "equivocating_client", _spec("C3", messages=["aaaaaaaa", "AAAAAAAA"]),
        ("fault_script.C3.messages", "different")),
    # spec values of another JSON type, typed by the scenario key table
    **{f"{key}_{name}": (file, _spec(label, **{key: [value]}), (
        f"fault_script.{label}.{key}[0] must be an integer",))
       for file, label, key in (
           ("censoring_broker", "B0", "censored"),
           ("byzantine_server_false_exception", "S3", "target_id"))
       for name, value in (("true", True), ("1_5", 1.5), ("string", "0"))},
    "target_id_false_false": ("byzantine_server_false_exception", _spec(
        "S3", target_id=[False, False]),
        ("fault_script.S3.target_id[0] must be an integer",)),
    "context_not_a_string": ("equivocating_client", _spec("C3", context=7),
                             ("fault_script.C3.context must be a string",)),
    "messages_not_a_list": ("equivocating_client", _spec(
        "C3", messages="aaaaaaaabbbbbbbb"),
        ("fault_script.C3.messages must be a list",)),
}


@pytest.mark.parametrize("name,edit,keys", CROSS_KEY_PROBES.values(),
                         ids=CROSS_KEY_PROBES.keys())
def test_edited_scenario_exits_2_before_it_runs(tmp_path, capsys, name, edit,
                                                keys):
    err = _invalid_edit(tmp_path, capsys, name, edit)
    assert all(key in err for key in keys), err


def _reached(*_args, **_kwargs):
    raise AssertionError("set-up began before the fault script was checked")


@pytest.mark.parametrize("name", [
    "censored_true", "target_id_1_1", "equivocator_with_one_broker"])
def test_malformed_fault_script_exits_2_before_set_up(tmp_path, capsys,
                                                      monkeypatch, name):
    """A fault-script entry is checked before the oracle mints a key or the
    preloaded directory a certificate."""
    monkeypatch.setattr(scenarios, "preloaded_directory", _reached)
    monkeypatch.setattr(crypto.Oracle, "__init__", _reached)
    file, edit, keys = CROSS_KEY_PROBES[name]
    err = _invalid_edit(tmp_path, capsys, file, edit)
    assert all(key in err for key in keys), err


def test_bundled_good_case_exits_0(capsys):
    assert main(["--scenario", str(SCENARIOS_DIR / "good_case.json")]) == 0


def test_ticks_at_the_bound_run_adversarially(tmp_path, capsys):
    """Every tick key at `TICK_BOUND`, delays drawn next to it: the run ends
    with every property passing, at ticks past 2^32."""
    doc = json.loads((SCENARIOS_DIR / "good_case.json").read_text())
    doc.update(synchrony="adversarial", timer_policy="scheduler")
    doc["delay_policy"].update(kind="uniform", min_delay=TICK_BOUND - 3,
                               max_delay=TICK_BOUND,
                               overrides={"B0->S1": TICK_BOUND})
    for entry in doc["broadcasts"]:
        entry["at"] = TICK_BOUND
    path = tmp_path / "bound.json"
    path.write_text(json.dumps(doc))
    assert main(["--scenario", str(path), "--out", str(tmp_path)]) == 0
    trace = (tmp_path / f"{doc['name']}.trace.jsonl").read_text()
    assert json.loads(trace.splitlines()[-1])["time"] > 2 * TICK_BOUND


def test_run_out_of_event_budget_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(simnet, "MAX_EVENTS", 10)
    assert main(["--scenario", str(SCENARIOS_DIR / "good_case.json")]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("error: liveness failure: no quiescence after "
                            "10 events\n")
    assert captured.out == ""


def test_invalid_scenario_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "bad", "servers": 5,
                               "fault_bound": 1, "brokers": 1, "clients": 1}))
    assert main(["--scenario", str(bad)]) == 2
    assert main(["--scenario", str(tmp_path / "missing.json")]) == 2
    assert main([]) == 2


def test_scenario_that_is_not_an_object_exits_2(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["--scenario", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: invalid scenario: scenario document is not an object")


def test_scenario_without_clients_exits_2(tmp_path, capsys):
    doc = json.loads(scenario_to_json(good_case()))
    doc["clients"] = 0
    path = tmp_path / "good_case.json"
    path.write_text(json.dumps(doc))
    assert main(["--scenario", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: invalid scenario: clients must be an integer of at least 1")


def test_write_corpus(tmp_path):
    assert main(["--write-corpus", str(tmp_path / "corpus")]) == 0
    names = {p.name for p in (tmp_path / "corpus").glob("*.json")}
    assert "good_case.json" in names and len(names) == 8


def test_bundled_scenarios_are_the_written_corpus(tmp_path):
    assert main(["--write-corpus", str(tmp_path)]) == 0
    written = {p.name: p.read_bytes() for p in tmp_path.glob("*.json")}
    bundled = {p.name: p.read_bytes() for p in SCENARIOS_DIR.glob("*.json")}
    assert bundled == written
