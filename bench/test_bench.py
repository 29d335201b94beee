"""Smoke and determinism tests of the benchmark, at tiny workload sizes."""

import json

import pytest

import run
from spans import Tracer
from workloads import WORKLOADS

from batchcast import crypto, directory, fifocast, metrics, properties
from batchcast import protocol, scenarios, wire

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_reported(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SPANS_DIR", tmp_path)
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_bench(workload, seed=1, seconds=0, trace=trace,
                               tiny=True)
        assert result["correct"]
        assert result["attempted"] > 0
        assert result["failed"] == 0  # failed_share is 0
        assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
        for m in SPEC[section]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert (tmp_path / f"{workload}.spans.tsv.gz").is_file()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_runs_repeat_exactly_traced_or_not(workload):
    makers = WORKLOADS[workload](3, tiny=True)
    first = run.in_child(run.measure.run_repetition, makers)
    again = run.in_child(run.measure.run_repetition, makers)
    traced = run.in_child(run.traced_repetition, makers, None)
    for rep in (again, traced):
        for key in ("digest", "counts", "latency", "bits", "verifications",
                    "attempted", "failed"):
            assert rep[key] == first[key], key
    for name in run.EXACT:
        if name in traced["layers"]:
            assert traced["layers"][name] == first["counts"][name], name
    assert run.check([first, again], [traced]) == []


def test_wrappers_are_removed():
    owners = (scenarios, properties, metrics, wire, protocol, crypto.Oracle,
              crypto.MerkleTree, directory.DirectoryView,
              directory.ClientSignup, directory.ServerDirectory,
              fifocast.FifoBroadcast)
    before = [dict(vars(owner)) for owner in owners]
    tracer = Tracer()
    with tracer.modules():
        assert wire.serialize is not before[3]["serialize"]
        rep = run.measure.run_repetition(WORKLOADS["batch_large"](1, True),
                                         tracer)
    assert rep["failed"] == 0
    assert [dict(vars(owner)) for owner in owners] == before
    assert tracer.layer_metrics()["protocol.broker_calls"] > 0
