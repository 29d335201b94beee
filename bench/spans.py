"""Span tracing for the benchmark's traced run.

The tracer wraps the public functions of each module where the caller looks
them up: module attributes (`wire.serialize`, the names `protocol` imports),
class attributes (`crypto.Oracle`, `crypto.MerkleTree`, the directory and
FIFO-broadcast entry points) and, per instance, each machine in
`sim.machines` and the simulation's own scheduling methods. Nothing under
`src/` is edited, every wrapper is removed afterwards, and a wrapper returns
exactly what the wrapped call returned, so a traced run produces the same
trace as an untraced one.

Spans are kept in memory as (name, start, end, parent) and written out at the
end of the run. A span's self time is its duration minus the time of its
direct child spans.
"""

from __future__ import annotations

import gzip
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from types import ModuleType

from batchcast import crypto, directory, fifocast, metrics, properties
from batchcast import protocol, scenarios, wire
from batchcast.bits import DecodeError
from batchcast.procs import ProcessKind

_ROLES = [kind.name.lower() for kind in ProcessKind]
_SHADOW = object()  # marks an instance attribute the tracer added


class Tracer:
    def __init__(self):
        self.spans: list = []     # (name, start, end, parent index or -1)
        self._stack: list = []    # [span index, name, child seconds]
        self.phase = "setup"
        self.self_s: Counter = Counter()   # (phase, name) -> seconds
        self.calls: Counter = Counter()    # (phase, name) -> calls
        self.counts: Counter = Counter()   # per-layer count -> value
        self.gauges: dict = {}             # per-layer gauge -> maximum

    # -- spans ----------------------------------------------------------------

    def wrap(self, name: str, fn, note=None, flat_under: str | None = None):
        """Return fn wrapped in a span named `name`.

        `note(result, *args)` updates counts after the call. A call made while
        a span whose name starts with `flat_under` is open gets no span of its
        own, so an oracle method that calls another oracle method is one span.
        """
        spans, stack = self.spans, self._stack
        self_s, calls = self.self_s, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if flat_under is not None and stack and \
                    stack[-1][1].startswith(flat_under):
                return fn(*args, **kwargs)
            frame = [len(spans), name, 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except DecodeError:
                self.counts["wire.decode_errors"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[frame[0]] = (name, start, end, parent)
                key = (self.phase, name)
                self_s[key] += end - start - frame[2]
                calls[key] += 1
                if stack:
                    stack[-1][2] += end - start
            if note is not None:
                note(result, *args, **kwargs)
            return result

        return wrapper

    @contextmanager
    def phase_span(self, phase: str):
        """Open the root span of one phase (setup, run or check)."""
        self.phase = phase
        name = f"bench.{phase}"
        frame = [len(self.spans), name, 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[frame[0]] = (name, start, end, -1)
            self.self_s[(phase, name)] += end - start - frame[2]
            self.calls[(phase, name)] += 1

    # -- installing wrappers ----------------------------------------------------

    def _patch(self, undo: list, owner, attr: str, name: str, **kwargs):
        if isinstance(owner, (type, ModuleType)):
            original = owner.__dict__[attr]  # class or module attribute
            undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, **kwargs))
        else:  # an instance: shadow the bound method
            undo.append((owner, attr, _SHADOW))
            setattr(owner, attr, self.wrap(name, getattr(owner, attr),
                                           **kwargs))

    @contextmanager
    def _restoring(self, undo: list):
        try:
            yield
        finally:
            while undo:
                owner, attr, original = undo.pop()
                if original is _SHADOW:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    @contextmanager
    def modules(self):
        """Wrap the module- and class-level names for the whole repetition."""
        undo: list = []
        counts = self.counts
        patch = self._patch
        with self._restoring(undo):
            patch(undo, scenarios, "build_simulation", "scenarios.build")
            patch(undo, properties, "check_trace", "properties.check")
            patch(undo, metrics, "amortized_report", "metrics.report")

            def bits(data, *_):
                counts["wire.bits"] += 8 * len(data)
            patch(undo, wire, "serialize", "wire.serialize", note=bits)
            patch(undo, wire, "deserialize", "wire.deserialize")
            patch(undo, protocol, "compress_ids", "encoding.ids")
            patch(undo, protocol, "expand_ids", "encoding.ids")

            def rejected(ok, *_):
                if ok is False:
                    counts["crypto.verify_rejected"] += 1

            def aggregate_keys(ok, oracle, caller, keycards, *_):
                rejected(ok)
                counts["crypto.verify_aggregate_keys"] += len(keycards)

            def leaves(_, tree, *__):
                counts["crypto.merkle_leaves"] += len(tree.leaves)

            flat = {"flat_under": "crypto."}
            oracle = crypto.Oracle
            patch(undo, oracle, "__init__", "crypto.keygen", **flat)
            patch(undo, oracle, "sign", "crypto.sign", **flat)
            patch(undo, oracle, "multisign", "crypto.sign", **flat)
            patch(undo, oracle, "verify", "crypto.verify", note=rejected,
                  **flat)
            patch(undo, oracle, "verify_aggregate", "crypto.verify_aggregate",
                  note=aggregate_keys, **flat)
            patch(undo, oracle, "verify_certificate",
                  "crypto.verify_certificate", note=rejected, **flat)
            patch(undo, oracle, "aggregate", "crypto.aggregate", **flat)
            patch(undo, oracle, "certify", "crypto.aggregate", **flat)
            patch(undo, crypto.MerkleTree, "__init__", "crypto.merkle_build",
                  note=leaves, **flat)
            patch(undo, crypto.MerkleTree, "prove", "crypto.merkle_prove",
                  **flat)
            patch(undo, protocol, "merkle_verify", "crypto.merkle_verify",
                  **flat)

            patch(undo, directory.DirectoryView, "import_assignment",
                  "directory")
            patch(undo, directory.ClientSignup, "handle", "directory")
            patch(undo, directory.ServerDirectory, "handle", "directory")
            patch(undo, fifocast.FifoBroadcast, "handle", "fifocast")
            yield

    @contextmanager
    def simulation(self, sim):
        """Wrap one simulation's machines and scheduling for its lifetime."""
        undo: list = []
        gauges = self.gauges

        def queue(*_args, **_kwargs):
            if len(sim._queue) > gauges.get("simnet.queue_peak", 0):
                gauges["simnet.queue_peak"] = len(sim._queue)

        with self._restoring(undo):
            for pid, machine in sim.machines.items():
                role = "protocol." + _ROLES[pid.kind]
                for hook in ("on_start", "on_message", "on_timer"):
                    self._patch(undo, machine, hook, role)
            self._patch(undo, sim, "_schedule_send", "simnet.schedule",
                        note=queue)
            self._patch(undo, sim, "_schedule_timer", "simnet.schedule",
                        note=queue)
            self._patch(undo, sim, "run_to_quiescence", "simnet.run")
            self._patch(undo, sim, "trace_jsonl", "simnet.trace_jsonl")
            yield

    def server_gauges(self, sim):
        """State held by each correct server at quiescence (maximum)."""
        for pid, machine in sim.machines.items():
            if (pid.kind != ProcessKind.SERVER
                    or pid.label in sim.scenario.fault_script):
                continue
            for gauge, held in (("protocol.server_stored_batches",
                                 machine.batches),
                                ("protocol.server_cached_replies",
                                 machine.replies),
                                ("protocol.server_message_records",
                                 machine.messages)):
                self.gauges[gauge] = max(self.gauges.get(gauge, 0), len(held))

    # -- results -----------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer values from the spans, named as in BENCHMARK.json."""
        s, n = self.self_s, self.calls

        def run_s(name):
            return s[("run", name)]

        def run_n(name):
            return n[("run", name)]

        out = {
            "simnet.self_s": run_s("simnet.run") + run_s("simnet.schedule")
                             + run_s("bench.run"),
            "simnet.trace_jsonl_s": s[("check", "simnet.trace_jsonl")],
            "wire.serialize_calls": run_n("wire.serialize"),
            "wire.serialize_s": run_s("wire.serialize"),
            "wire.deserialize_calls": run_n("wire.deserialize"),
            "wire.deserialize_s": run_s("wire.deserialize"),
            "wire.bits": self.counts["wire.bits"],
            "wire.decode_errors": self.counts["wire.decode_errors"],
            "encoding.ids_calls": run_n("encoding.ids"),
            "encoding.ids_s": run_s("encoding.ids"),
            "crypto.sign_calls": run_n("crypto.sign"),
            "crypto.sign_s": run_s("crypto.sign"),
            "crypto.verify_calls": run_n("crypto.verify"),
            "crypto.verify_s": run_s("crypto.verify"),
            "crypto.verify_aggregate_calls": run_n("crypto.verify_aggregate"),
            "crypto.verify_aggregate_keys":
                self.counts["crypto.verify_aggregate_keys"],
            "crypto.verify_aggregate_s": run_s("crypto.verify_aggregate"),
            "crypto.verify_certificate_calls":
                run_n("crypto.verify_certificate"),
            "crypto.verify_certificate_s": run_s("crypto.verify_certificate"),
            "crypto.verify_rejected": self.counts["crypto.verify_rejected"],
            "crypto.aggregate_s": run_s("crypto.aggregate"),
            "crypto.merkle_leaves": self.counts["crypto.merkle_leaves"],
            "crypto.merkle_build_s": run_s("crypto.merkle_build"),
            "crypto.merkle_prove_calls": run_n("crypto.merkle_prove"),
            "crypto.merkle_prove_s": run_s("crypto.merkle_prove"),
            "crypto.merkle_verify_calls": run_n("crypto.merkle_verify"),
            "crypto.merkle_verify_s": run_s("crypto.merkle_verify"),
            "crypto.setup_s": sum(v for (phase, name), v in s.items()
                                  if phase == "setup"
                                  and name.startswith("crypto.")),
            "directory.calls": run_n("directory"),
            "directory.s": run_s("directory"),
            "fifocast.calls": run_n("fifocast"),
            "fifocast.s": run_s("fifocast"),
            "properties.check_s": s[("check", "properties.check")],
            "metrics.report_s": s[("check", "metrics.report")],
            "scenarios.build_s": s[("setup", "scenarios.build")]
                                 + s[("setup", "bench.setup")],
        }
        for role in _ROLES:
            out[f"protocol.{role}_calls"] = run_n(f"protocol.{role}")
            out[f"protocol.{role}_s"] = run_s(f"protocol.{role}")
        for gauge in ("simnet.queue_peak", "protocol.server_stored_batches",
                      "protocol.server_cached_replies",
                      "protocol.server_message_records"):
            out[gauge] = self.gauges.get(gauge, 0)
        return out

    def write_spans(self, path: Path):
        """Write the spans as gzip'd TSV: name, start ns, end ns, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart_ns\tend_ns\tparent\n")
            for name, start, end, parent in self.spans:
                out.write("%s\t%d\t%d\t%d\n" % (
                    name, (start - origin) * 1e9, (end - origin) * 1e9,
                    parent))
