"""One repetition of a workload: set up, run and check each simulation.

This is the path the CLI takes, through the library's public API:
`scenarios.build_simulation`, `Simulation.run_to_quiescence`, then the
post-run work `properties.check_trace`, `metrics.amortized_report` and
`Simulation.trace_jsonl`. One simulation is alive at a time. Only those calls
are timed; the checks on their output that follow are not.
"""

from __future__ import annotations

import gc
import hashlib
import math
import signal
import statistics
import sys
import traceback
from contextlib import nullcontext
from time import perf_counter

from batchcast import metrics, properties, scenarios
from batchcast.procs import client

SETUP_REPEATS = 5  # set-up is short: time it several times, keep the median
PROBE_INTERVAL_S = 0.05
PROBE_LOOP = 10_000
PROBE_NOMINAL_S = 0.0008  # one probe on the baseline host (README.md)
PROBE_MIN_SAMPLES = 5
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10  # samples the tail percentile must leave above it


class HostSpeed:
    """Samples how fast the host runs while the timed work runs.

    The host's speed swings by a third within seconds when other tenants
    load it, in the simulator and in a plain arithmetic loop alike. Every
    PROBE_INTERVAL_S a SIGALRM handler times a fixed arithmetic loop and files
    the sample under the phase then running. The median of a phase's samples
    against PROBE_NOMINAL_S scales that phase's wall time to the baseline
    host's usual speed. The handler reads and writes no simulator state.
    """

    def __init__(self):
        self.phase = None
        self.samples: dict = {}  # phase -> probe seconds
        self.spent = 0.0  # seconds spent inside the probe

    def _probe(self, _signum, _frame):
        t0 = perf_counter()
        n = 0
        for i in range(PROBE_LOOP):
            n += i * i % 7
        elapsed = perf_counter() - t0
        self.samples.setdefault(self.phase, []).append(elapsed)
        self.spent += elapsed

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factors(self) -> dict:
        """Per phase, the factor that rescales its wall time.

        A phase with too few samples of its own uses all of them.
        """
        every = [x for xs in self.samples.values() for x in xs]
        out = {}
        for phase in ("setup", "run", "check"):
            own = self.samples.get(phase, [])
            pool = own if len(own) >= PROBE_MIN_SAMPLES else every
            out[phase] = (PROBE_NOMINAL_S / statistics.median(pool)
                          if pool else 1.0)
        return out


def percentile(ordered: list, p: float) -> int:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail_percentile(n: int) -> float:
    """The highest listed percentile with TAIL_BEYOND samples above it."""
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100 * n) >= TAIL_BEYOND:
            return p
    return 50.0


def trace_counts(trace) -> dict:
    """Exact counts read from a trace; they must not depend on tracing."""
    counts = {"simnet.events": 0, "simnet.trace_records": len(trace),
              "wire.bits": 0, "crypto.verify_calls": 0,
              "crypto.verify_aggregate_calls": 0,
              "crypto.verify_certificate_calls": 0,
              "directory.imports_rejected": 0}
    for ev in trace:
        if ev.kind in ("deliver", "timer_ring"):
            counts["simnet.events"] += 1
        elif ev.kind == "send":
            counts["wire.bits"] += 8 * ev.bytes_len
        elif ev.kind == "verify":
            counts[f"crypto.{ev.tag}_calls"] += 1
        elif ev.kind == "dir_import_rejected":
            counts["directory.imports_rejected"] += 1
    return counts


def operations(sim, scenario) -> tuple[int, list]:
    """Correct-client broadcasts, and their latencies at correct servers.

    Returns the number of operations and, for each, the list of ticks from
    the client's `broadcast` event to each correct server's `app_deliver`,
    or None where some correct server never delivered it.
    """
    faulty = scenario.fault_script
    servers = [f"S{i}" for i in range(scenario.n_servers)
               if f"S{i}" not in faulty]
    planned = [(f"C{e['client']}", e["context"]) for e in scenario.broadcasts
               if f"C{e['client']}" not in faulty]
    sent, delivered = {}, {}
    for ev in sim.trace:
        if ev.kind == "broadcast":
            sent.setdefault((ev.src, ev.extra["context"]), ev.time)
        elif ev.kind == "app_deliver":
            key = (ev.src, ev.extra["client"], ev.extra["context"])
            delivered.setdefault(key, ev.time)
    keycard = {}
    latencies = []
    for label, context in planned:
        if label not in keycard:
            keycard[label] = sim.oracle.keycard(client(int(label[1:]))).hex()
        start = sent.get((label, context))
        ticks = [delivered.get((srv, keycard[label], context))
                 for srv in servers]
        if start is None or None in ticks:
            latencies.append(None)
        else:
            latencies.append([t - start for t in ticks])
    return len(planned), latencies


def worst_server(report: dict, scenario) -> tuple[tuple, tuple]:
    """(bits, payloads) and (verifications, payloads) of the worst correct
    server by each ratio, from `amortized_report`."""
    rows = [row for label, row in report["servers"].items()
            if label not in scenario.fault_script and row["delivered"]]
    if not rows:
        return (0, 0), (0, 0)
    bits = max(rows, key=lambda r: r["protocol_bits"] / r["delivered"])
    verifications = max(rows, key=lambda r: r["verifications"] / r["delivered"])
    return ((bits["protocol_bits"], bits["delivered"]),
            (verifications["verifications"], verifications["delivered"]))


def run_repetition(makers: list, tracer=None) -> dict:
    """Set up, run and check every simulation of one repetition.

    Untraced, the host's speed is probed meanwhile (HostSpeed); the phase
    times exclude the probe's own time, and `speed` holds each phase's scale
    factor.
    """
    phase = tracer.phase_span if tracer else lambda _name: nullcontext()
    repeats = 1 if tracer else SETUP_REPEATS
    out = {"setup_s": 0.0, "run_s": 0.0, "check_s": 0.0, "payloads": 0,
           "attempted": 0, "failed": 0, "problems": [],
           "bits": [0, 0], "verifications": [0, 0]}  # [sum, payloads]
    counts: dict = {}
    samples: list = []
    digest = hashlib.sha256()
    speed = HostSpeed()

    def now() -> float:
        return perf_counter() - speed.spent

    with nullcontext() if tracer else speed:
        for make in makers:
            setup = []
            for _ in range(repeats):
                sim = None  # let the previous build go before timing the next
                gc.collect()
                speed.phase = "setup"
                t0 = now()
                with phase("setup"):
                    scenario = make()
                    sim = scenarios.build_simulation(scenario)
                setup.append(now() - t0)
                speed.phase = None
            out["setup_s"] += sorted(setup)[len(setup) // 2]
            name = f"{scenario.name} seed {scenario.seed}"

            gc.collect()
            with tracer.simulation(sim) if tracer else nullcontext():
                speed.phase = "run"
                t0 = now()
                try:
                    with phase("run"):
                        sim.run_to_quiescence()
                except Exception:  # counted as failed operations, not fatal
                    out["problems"].append(
                        f"{name}: raised\n{traceback.format_exc()}")
                    ok = False
                else:
                    ok = True
                out["run_s"] += now() - t0
                speed.phase = "check"
                if ok:
                    t0 = now()
                    with phase("check"):
                        verdicts = properties.check_trace(sim.trace)
                        report = metrics.amortized_report(sim.trace, scenario)
                        jsonl = sim.trace_jsonl()
                    out["check_s"] += now() - t0
                speed.phase = None

            n_ops, latencies = operations(sim, scenario)
            out["attempted"] += n_ops
            if ok:
                failing = [p for p, v in verdicts.items() if not v.ok]
                if failing:
                    out["problems"].append(
                        f"{name}: properties {failing} failed")
                    ok = False
                missing = latencies.count(None)
                if missing:
                    out["problems"].append(
                        f"{name}: {missing} broadcasts not delivered "
                        "everywhere")
            if not ok:
                out["failed"] += n_ops
                continue
            out["failed"] += missing
            delivered = [ticks for ticks in latencies if ticks is not None]
            out["payloads"] += len(delivered)
            for ticks in delivered:
                samples.extend(ticks)
            for key, (total, n) in zip(("bits", "verifications"),
                                       worst_server(report, scenario)):
                out[key][0] += total
                out[key][1] += n
            digest.update(hashlib.sha256(jsonl.encode()).digest())
            for key, value in trace_counts(sim.trace).items():
                counts[key] = counts.get(key, 0) + value
            if tracer:
                tracer.server_gauges(sim)
            del sim, verdicts, report, jsonl

    out["speed"] = speed.factors()
    samples.sort()
    tail = tail_percentile(len(samples))
    out["latency"] = {
        "samples": len(samples), "tail_percentile": tail,
        "p50": percentile(samples, 50.0) if samples else None,
        "tail": percentile(samples, tail) if samples else None}
    out["digest"] = digest.hexdigest()
    out["counts"] = counts
    for problem in out["problems"]:
        print(problem, file=sys.stderr)
    return out
