"""Bit-exact cost accounting over execution traces.

Counts every serialized envelope bit a server exchanges for the broadcast
protocol proper, amortized over the payloads that server delivered, and
compares with the oracle bound ceil(log2(C)) + |p| bits per payload.  Signup
and FIFO-broadcast traffic is reported in a separate column: the batching
limit assumes a steady-state directory.  Self-addressed envelopes are local
events and count nothing.

Signature verifications (verify / verify_aggregate) are counted per process,
exactly one count per oracle call; certificate checks are tracked separately.
"""

from __future__ import annotations

import csv
import io
import math

from . import crypto
from .simnet import DELIVER, SEND, VERIFY, Trace

PAYLOAD_TAGS = frozenset({
    "Submission", "Inclusion", "Reduction", "BatchMsg", "BatchAcquired",
    "Signatures", "WitnessShard", "Witness", "CommitShard", "Commit",
    "CompletionShard", "Completion", "OfferTotality", "AcceptTotality",
    "Totality",
})
DIRECTORY_TAGS = frozenset({
    "Signup", "Ranked", "Assigner", "AssignShard",
    "FifoSend", "FifoEcho", "FifoReady",
})

SIZE_CONSTANTS = {
    "digest_bits": crypto.DIGEST_BITS,
    "signature_bits": crypto.SIGNATURE_BITS,
    "multisig_bits": crypto.MULTISIG_BITS,
    "pubkey_bits": crypto.PUBKEY_BITS,
}


def oracle_bound(n_clients: int, payload_bits: int) -> int:
    return math.ceil(math.log2(n_clients)) + payload_bits


class CostLedger:
    """Per-process ingress/egress bit counters and verification counters."""

    def __init__(self):
        self.ingress: dict = {}   # (label, tag) -> bits
        self.egress: dict = {}
        self.verifications: dict = {}       # label -> verify+verify_aggregate
        self.cert_checks: dict = {}         # label -> verify_certificate
        self.delivered: dict = {}           # server label -> payload count

    @classmethod
    def from_trace(cls, trace) -> "CostLedger":
        """The ledger of a `Trace` (or of records, see `Trace.of`), read from
        its base columns."""
        trace = Trace.of(trace)
        delivers = trace.find("app_deliver")
        egress, ingress, verifies, delivered = {}, {}, {}, {}  # by codes
        for kind, src, dst, tag, n in zip(trace.kind, trace.src, trace.dst,
                                          trace.tag, trace.bytes_len):
            if kind == SEND or kind == DELIVER:
                if src == dst:
                    continue  # self-sends are local events
                if kind == SEND:
                    key = (src, tag)
                    egress[key] = egress.get(key, 0) + n
                else:
                    key = (dst, tag)
                    ingress[key] = ingress.get(key, 0) + n
            elif kind == VERIFY:
                key = (src, tag)
                verifies[key] = verifies.get(key, 0) + 1
            elif kind == delivers:
                delivered[src] = delivered.get(src, 0) + 1
        ledger = cls()
        names = trace.names
        for codes, book in ((egress, ledger.egress),
                            (ingress, ledger.ingress)):
            for (who, tag), n in codes.items():
                book[names[who], names[tag]] = 8 * n
        for (who, verb), count in verifies.items():
            book = (ledger.verifications
                    if names[verb] in ("verify", "verify_aggregate")
                    else ledger.cert_checks)
            book[names[who]] = book.get(names[who], 0) + count
        ledger.delivered = {names[who]: count
                            for who, count in delivered.items()}
        return ledger

    def bits_for(self, label: str, tags: frozenset) -> int:
        return (sum(v for (who, tag), v in self.ingress.items()
                    if who == label and tag in tags)
                + sum(v for (who, tag), v in self.egress.items()
                      if who == label and tag in tags))


def amortized_report(trace, scenario) -> dict:
    """Per-server amortized costs against the oracle bound."""
    ledger = CostLedger.from_trace(trace)
    bound = oracle_bound(scenario.n_clients, scenario.payload_bits)
    servers = {}
    degenerate = False
    for i in range(scenario.n_servers):
        label = f"S{i}"
        delivered = ledger.delivered.get(label, 0)
        row = {
            "delivered": delivered,
            "protocol_bits": ledger.bits_for(label, PAYLOAD_TAGS),
            "directory_bits": ledger.bits_for(label, DIRECTORY_TAGS),
            "verifications": ledger.verifications.get(label, 0),
            "certificate_checks": ledger.cert_checks.get(label, 0),
        }
        if delivered:
            row["bits_per_payload"] = row["protocol_bits"] / delivered
            row["verifications_per_payload"] = row["verifications"] / delivered
        else:
            degenerate = True
            row["bits_per_payload"] = None
            row["verifications_per_payload"] = None
        servers[label] = row
    # broker-side verification work is reported separately: the zero-cost
    # claim concerns servers only
    brokers = {}
    for i in range(scenario.n_brokers):
        label = f"B{i}"
        brokers[label] = {
            "verifications": ledger.verifications.get(label, 0),
            "certificate_checks": ledger.cert_checks.get(label, 0),
            "protocol_bits": ledger.bits_for(label, PAYLOAD_TAGS),
        }
    return {
        "oracle_bound": bound,
        "servers": servers,
        "brokers": brokers,
        "degenerate": degenerate,
        "sizes": dict(SIZE_CONSTANTS),
    }


def convergence_sweep(m_values, n_clients: int = 1024) -> list[dict]:
    """Run the good-case batching scenario across batch sizes."""
    from .scenarios import batching_limit, run_scenario

    rows = []
    for m in m_values:
        scenario = batching_limit(m=m, n_clients=n_clients)
        sim = run_scenario(scenario)
        report = amortized_report(sim.trace, scenario)
        worst = max(row["bits_per_payload"]
                    for row in report["servers"].values())
        verifications = max(row["verifications_per_payload"]
                            for row in report["servers"].values())
        rows.append({
            "m": m,
            "bits_per_payload": worst,
            "oracle_bound": report["oracle_bound"],
            "overhead": worst - report["oracle_bound"],
            "verifications_per_payload": verifications,
        })
    return rows


def sweep_csv(rows: list[dict]) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=[
        "m", "bits_per_payload", "oracle_bound", "overhead",
        "verifications_per_payload"])
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return out.getvalue()
