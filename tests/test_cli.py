"""Runner flags, exit codes, and emitted artifacts."""

import json
from pathlib import Path

import pytest

from batchcast import simnet
from batchcast.cli import main
from batchcast.properties import _keycard
from batchcast.scenarios import good_case, scenario_to_json

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


@pytest.mark.parametrize("line", [
    "[1,2]",
    '{"time":0}',
    '{"time":0,"kind":"scenario","servers":4,"clients":1}',
    '{"time":0,"kind":',
], ids=["not_an_object", "no_kind", "header_without_brokers", "bad_json"])
def test_check_only_malformed_trace_exits_2(tmp_path, capsys, line):
    path = tmp_path / "malformed.jsonl"
    path.write_text(line + "\n")
    assert main(["--check-only", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: malformed trace: line 1:")
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
    "payload_bits": (lambda d: d.update(payload_bits=-1), "payload_bits"),
    "batching_window": (lambda d: d.update(batching_window=-5),
                        "batching_window"),
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


def _one_broker(doc):
    doc["brokers"] = 1
    del doc["broker_order"]


# edits of other bundled files: (file, edit, the names the error must hold)
CROSS_KEY_PROBES = {
    "payload_bits_128": ("good_case", lambda d: d.update(payload_bits=128),
                         ("broadcasts[0]", "payload_bits")),
    "equivocator_with_one_broker": ("equivocating_client", _one_broker,
                                    ("fault_script.C3", "brokers")),
    "censored_client_99": ("censoring_broker", lambda d: d["fault_script"][
        "B0"].update(censored=[99]), ("fault_script.B0.censored", "clients")),
    "target_id_9_9": ("byzantine_server_false_exception", lambda d: d[
        "fault_script"]["S3"].update(target_id=[9, 9]),
        ("fault_script.S3.target_id", "servers")),
}


@pytest.mark.parametrize("name,edit,keys", CROSS_KEY_PROBES.values(),
                         ids=CROSS_KEY_PROBES.keys())
def test_edited_scenario_exits_2_before_it_runs(tmp_path, capsys, name, edit,
                                                keys):
    err = _invalid_edit(tmp_path, capsys, name, edit)
    assert all(key in err for key in keys), err


def test_bundled_good_case_exits_0(capsys):
    assert main(["--scenario", str(SCENARIOS_DIR / "good_case.json")]) == 0


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
