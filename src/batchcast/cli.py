"""Scenario runner, trace checker and convergence sweep.

Exit codes: 0 all properties pass, 1 property failure, 2 configuration error,
3 a scenario run that does not quiesce within `simnet.MAX_EVENTS` events.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import metrics, properties, scenarios, simnet, trace
from .procs import PROCESS_BOUNDS

SWEEP_KEYS = scenarios.KeyTable(dict, {"m_values": ("m_values", [int]),
                                       "clients": ("clients", int)})


def _run(args) -> int:
    try:
        text = Path(args.scenario).read_text()
        scenario = scenarios.scenario_from_json(text)
        if args.seed is not None:
            scenario.seed = args.seed
        sim = scenarios.run_scenario(scenario)
    except (OSError, ValueError) as exc:
        print(f"error: invalid scenario: {exc}", file=sys.stderr)
        return 2
    except simnet.EventBudgetExhausted as exc:
        print(f"error: liveness failure: {exc}", file=sys.stderr)
        return 3

    verdicts = properties.check_trace(sim.trace)
    report = {
        "scenario_digest": hashlib.sha256(text.encode()).hexdigest(),
        "scenario": scenario.name,
        "seed": scenario.seed,
        "verdicts": {k: v.to_json() for k, v in verdicts.items()},
        "metrics": metrics.amortized_report(sim.trace, scenario),
    }
    if args.out:
        trace_name = f"{scenario.name}.trace.jsonl"
        report["trace_path"] = str(Path(args.out) / trace_name)
        if not _write_files(args.out, {
                trace_name: sim.trace.jsonl(),
                f"{scenario.name}.report.json": json.dumps(report, indent=2)}):
            return 2
    return _print_verdicts(verdicts)


def _check(args) -> int:
    try:
        records = trace.load_trace_file(args.check_only)
    except (OSError, ValueError) as exc:
        print(f"error: malformed trace: {exc}", file=sys.stderr)
        return 2
    return _print_verdicts(properties.check_trace(records))


def _sweep(args) -> int:
    try:
        spec = scenarios.read_keys(Path(args.sweep).read_text(), SWEEP_KEYS,
                                   "sweep spec")
        bound = PROCESS_BOUNDS["clients"]
        if not 1 <= spec["clients"] <= bound:
            raise ValueError(f"clients must be an integer of at least 1 and "
                             f"at most {bound}")
        for i, m in enumerate(spec["m_values"]):  # batching_limit divides by m
            if m < 1:
                raise ValueError(f"m_values[{i}] must be at least 1")
        if max(spec["m_values"], default=1) > spec["clients"]:
            raise ValueError("m_values must not exceed clients")
        rows = metrics.convergence_sweep(spec["m_values"], spec["clients"])
    except (OSError, ValueError) as exc:
        print(f"error: invalid sweep spec: {exc}", file=sys.stderr)
        return 2
    csv_text = metrics.sweep_csv(rows)
    if args.out and not _write_files(args.out, {"sweep.csv": csv_text}):
        return 2
    print(csv_text, end="")
    return 0


def _write_files(directory: str, files: dict) -> bool:
    """Write {file name: text, or an iterable of its chunks, each written as
    it is made} into `directory`; False, printed, on OSError."""
    try:
        out = Path(directory)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            with (out / name).open("w") as file:
                file.writelines((text,) if isinstance(text, str) else text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return False
    return True


def _print_verdicts(verdicts) -> int:
    """Print each property's verdict; the exit code, 1 if one failed."""
    for name in properties.ALL_PROPERTIES:
        v = verdicts[name]
        print(f"PASS {name}" if v.ok else
              f"FAIL {name} at event {v.counterexample}: {v.detail}")
    return 0 if all(v.ok for v in verdicts.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="batchcast",
        description="Run broadcast scenarios, verify traces, sweep costs.")
    action = parser.add_mutually_exclusive_group()  # one action a run
    action.add_argument("--scenario", help="scenario JSON file to run")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    parser.add_argument("--out", help="output directory for trace and report")
    action.add_argument("--check-only", metavar="TRACE",
                        help="verify an existing trace file and exit")
    action.add_argument("--sweep", metavar="SPEC",
                        help="convergence sweep spec (JSON file)")
    action.add_argument("--write-corpus", metavar="DIR",
                        help="write the bundled scenario corpus and exit")
    args = parser.parse_args(argv)
    if args.seed is not None and args.scenario is None:
        parser.error("argument --seed: not allowed without argument "
                     "--scenario")
    if args.out is not None and args.check_only is not None:
        parser.error("argument --out: not allowed with argument --check-only")
    if args.out is not None and args.write_corpus is not None:
        parser.error("argument --out: not allowed with argument "
                     "--write-corpus")

    if args.write_corpus:
        corpus = {f"{name}.json": scenarios.scenario_to_json(factory())
                  for name, factory in scenarios.CORPUS.items()}
        return 0 if _write_files(args.write_corpus, corpus) else 2
    if args.check_only:
        return _check(args)
    if args.sweep:
        return _sweep(args)
    if args.scenario:
        return _run(args)
    parser.print_usage()
    return 2


if __name__ == "__main__":
    sys.exit(main())
