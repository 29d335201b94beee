"""Benchmark of the batchcast simulator.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload's simulations are built from
the seed (see workloads.py) and run through the library's public API, one
repetition at a time, each repetition in a fresh child process so that its
peak memory is its own. Repetitions continue until S seconds have passed
(at least one runs, and none starts that would end later). With --trace 0 the end-to-end metrics are reported as
medians over the repetitions; with --trace 1 untraced and traced repetitions
alternate and the per-layer metrics come from the traced ones, whose spans
are written to .bench_out/. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Metric names and units
are those of BENCHMARK.json; README.md describes each.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

try:
    import measure
    from spans import Tracer
    from workloads import WORKLOADS
except ModuleNotFoundError as exc:
    if exc.name != "batchcast":
        raise
    measure = None  # reported by main(): the program's sources are missing

# counts that must read the same in every repetition, traced or not
EXACT = ("simnet.events", "simnet.trace_records", "wire.bits",
         "crypto.verify_calls", "crypto.verify_aggregate_calls",
         "crypto.verify_certificate_calls")


def in_child(fn, *args) -> dict:
    """Run fn(*args) in a forked child and return its result.

    The result gains the child's peak resident memory, which starts from the
    parent's small footprint and not from any earlier repetition's peak.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            result = fn(*args)
            result["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(result, pipe)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not data:
        raise RuntimeError("a repetition's process failed")
    return json.loads(data)


def traced_repetition(makers, spans_path) -> dict:
    tracer = Tracer()
    with tracer.modules():
        result = measure.run_repetition(makers, tracer)
    result["layers"] = tracer.layer_metrics()
    result["run_self_s"] = {name: seconds for (phase, name), seconds
                            in tracer.self_s.items() if phase == "run"}
    if spans_path is not None:
        tracer.write_spans(spans_path)
    return result


def _wall(rep: dict) -> float:
    return rep["setup_s"] + rep["run_s"] + rep["check_s"]


def _spread(values: list) -> str:
    if len(values) < 2:
        return "1 repetition"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of {len(values)}, quartiles {q1:.4g}..{q3:.4g}"


def end_to_end(reps: list) -> tuple[dict, dict]:
    """Metric values and the note printed beside each."""
    first = reps[0]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    # wall times at the baseline host's usual speed (measure.HostSpeed)
    series = {
        "setup_s": [r["setup_s"] * r["speed"]["setup"] for r in reps],
        "sim_payloads_per_s": [
            r["payloads"] / max(r["run_s"] * r["speed"]["run"], 1e-9)
            for r in reps],
        "check_payloads_per_s": [
            r["payloads"] / max(r["check_s"] * r["speed"]["check"], 1e-9)
            for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    values = {name: statistics.median(v) for name, v in series.items()}
    notes = {name: _spread(v) for name, v in series.items()}
    speed = statistics.median(r["speed"]["run"] for r in reps)
    raw = {"setup_s": statistics.median(r["setup_s"] for r in reps),
           "sim_payloads_per_s": statistics.median(
               r["payloads"] / max(r["run_s"], 1e-9) for r in reps),
           "check_payloads_per_s": statistics.median(
               r["payloads"] / max(r["check_s"], 1e-9) for r in reps)}
    for name, value in raw.items():
        notes[name] += f"; unscaled {value:.4g} at host speed {speed:.3f}"
    lat = first["latency"]
    for key, (total, n) in (("bits_per_payload", first["bits"]),
                            ("verifications_per_payload",
                             first["verifications"])):
        values[key] = total / n if n else 0.0
        notes[key] = f"worst correct server, {total} over {n} payloads"
    values["latency_ticks_p50"] = lat["p50"] or 0
    values["latency_ticks_tail"] = lat["tail"] or 0
    notes["latency_ticks_p50"] = f"p50 of {lat['samples']} samples"
    notes["latency_ticks_tail"] = (f"p{lat['tail_percentile']:g} of "
                                   f"{lat['samples']} samples")
    values["delivered_share"] = (attempted - failed) / max(attempted, 1)
    notes["delivered_share"] = (f"failed_share {failed / max(attempted, 1):g}"
                                f": {failed} failed of {attempted} attempted")
    return values, notes


def per_layer(plain: list, traced: list, timed: set) -> tuple[dict, dict]:
    """Metric values and notes; `timed` names the ones measured in seconds."""
    first = traced[0]
    values = dict(first["layers"])
    notes = {}
    for name in values:
        if name in timed:
            series = [r["layers"][name] for r in traced]
            values[name] = statistics.median(series)
            notes[name] = _spread(series)
    values["simnet.events"] = first["counts"]["simnet.events"]
    values["simnet.trace_records"] = first["counts"]["simnet.trace_records"]
    values["properties.records"] = first["counts"]["simnet.trace_records"]
    values["directory.imports_rejected"] = \
        first["counts"]["directory.imports_rejected"]
    values["trace.overhead"] = (statistics.median(_wall(r) for r in traced)
                                / statistics.median(_wall(r) for r in plain))
    notes["trace.overhead"] = (f"traced over untraced wall time, "
                               f"{len(traced)} + {len(plain)} repetitions")
    return values, notes


def check(plain: list, traced: list) -> list:
    """Problems that make the run incorrect, beyond failed operations."""
    problems = []
    first = plain[0]
    for rep in plain[1:] + traced:
        if rep["digest"] != first["digest"]:
            problems.append("trace hash differs between repetitions")
        if rep["counts"] != first["counts"]:
            problems.append("trace counts differ between repetitions")
    for rep in traced:
        seen = {name: rep["layers"][name] for name in EXACT
                if name in rep["layers"]}
        if any(rep["counts"][name] != value for name, value in seen.items()):
            problems.append(f"traced counts {seen} disagree with the trace")
    return sorted(set(problems))


def run_bench(workload: str, seed: int, seconds: float, trace: bool,
              tiny: bool = False) -> dict:
    """Run the benchmark; returns the result object printed last."""
    makers = WORKLOADS[workload](seed, tiny)
    spans_path = SPANS_DIR / f"{workload}.spans.tsv.gz"
    plain, traced = [], []
    deadline = time.monotonic() + seconds
    while True:
        started = time.monotonic()
        plain.append(in_child(measure.run_repetition, makers))
        if trace:
            traced.append(in_child(traced_repetition, makers,
                                   None if traced else spans_path))
        # stop before a repetition that would end after the deadline
        if 2 * time.monotonic() - started >= deadline:
            break

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if trace:
        section = spec["per_layer"]
        timed = {m["name"] for m in section if m["unit"] == "s"}
        values, notes = per_layer(plain, traced, timed)
    else:
        values, notes = end_to_end(plain)
        section = spec["end_to_end"]
    problems = check(plain, traced)
    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)

    print(f"workload {workload}  seed {seed}  "
          f"repetitions {len(plain)} untraced, {len(traced)} traced")
    for m in section:
        name = m["name"]
        print(f"  {name:34} {values[name]:<14.6g} {m['unit']:11} "
              f"{notes.get(name, '')}")
    print(f"  failed_share {failed / max(attempted, 1):g} "
          f"({failed} failed of {attempted} attempted)")
    print(f"  trace_sha256 {plain[0]['digest']}")
    print("  counts " + " ".join(f"{k}={v}" for k, v in
                                 sorted(plain[0]["counts"].items())))
    if trace:
        split = traced[0]["run_self_s"]
        total = sum(split.values()) or 1.0
        print("  self time of the run phase by span: " + ", ".join(
            f"{name} {seconds / total:.1%}" for name, seconds in
            sorted(split.items(), key=lambda kv: -kv[1])))
    for problem in problems:
        print(f"  problem: {problem}", file=sys.stderr)
    return {"correct": failed == 0 and not problems,
            "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]],
                                    "unit": m["unit"]} for m in section}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(
        WORKLOADS) if measure else None)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if measure is None:
        print(f"error: no batchcast sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    result = run_bench(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
