"""Bit-exact cost accounting over execution traces.

Counts every serialized envelope bit a server exchanges for the broadcast
protocol proper, amortized over the payloads that server delivered, and
compares with the oracle bound ceil(log2(C)) + |p| bits per payload.  Signup
and FIFO-broadcast traffic is reported in a separate column: the batching
limit assumes a steady-state directory.  Self-addressed envelopes are local
events and count nothing.

Signature verifications (verify / verify_aggregate) are counted per process,
exactly one count per oracle call; certificate checks are tracked separately.
`amortized_report` reads all of it from the trace's base columns in one pass.
"""

from __future__ import annotations

import csv
import io
import math
from collections import defaultdict

from . import crypto, wire
from .scenarios import batching_limit, run_scenario
from .trace import DELIVER, SEND, VERIFY, Trace

DIRECTORY_TAGS = frozenset(cls.__name__ for cls in wire.DIRECTORY_TYPES)
PAYLOAD_TAGS = frozenset(
    cls.__name__ for cls in wire.MESSAGE_TYPES) - DIRECTORY_TAGS

SIZE_CONSTANTS = {
    "digest_bits": crypto.DIGEST_BITS,
    "signature_bits": crypto.SIGNATURE_BITS,
    "multisig_bits": crypto.MULTISIG_BITS,
    "pubkey_bits": crypto.PUBKEY_BITS,
}


def oracle_bound(n_clients: int, payload_bits: int) -> int:
    return math.ceil(math.log2(n_clients)) + payload_bits


def amortized_report(trace: Trace, scenario) -> dict:
    """Per-server amortized costs against the oracle bound.

    One pass over the base columns adds five totals per process code:
    protocol bits, directory bits, verifications, certificate checks and
    delivered payloads.  A tag in no column counts nothing."""
    trace.flush()
    code = trace.find  # -1 for a name no row holds, so no row matches it
    bit_column = {code(tag): column for column, tags in enumerate(
        (PAYLOAD_TAGS, DIRECTORY_TAGS)) for tag in tags}
    verb_column = {code("verify"): 2, code("verify_aggregate"): 2,
                   code("verify_certificate"): 3}
    delivers = code("app_deliver")
    totals = defaultdict(lambda: [0] * 5)
    for kind, src, dst, tag, n in zip(trace.kind, trace.src, trace.dst,
                                      trace.tag, trace.bytes_len):
        if kind == SEND or kind == DELIVER:
            column = bit_column.get(tag)
            if column is not None and src != dst:  # self-sends are local
                totals[src if kind == SEND else dst][column] += 8 * n
        elif kind == VERIFY:
            column = verb_column.get(tag)
            if column is not None:
                totals[src][column] += 1
        elif kind == delivers:
            totals[src][4] += 1
    servers = {}
    for label in (f"S{i}" for i in range(scenario.n_servers)):
        protocol, directory, verifications, certificates, delivered = \
            totals[code(label)]
        servers[label] = {
            "delivered": delivered,
            "protocol_bits": protocol,
            "directory_bits": directory,
            "verifications": verifications,
            "certificate_checks": certificates,
            "bits_per_payload": protocol / delivered if delivered else None,
            "verifications_per_payload":
                verifications / delivered if delivered else None,
        }
    # broker-side verification work is reported separately: the zero-cost
    # claim concerns servers only
    brokers = {}
    for label in (f"B{i}" for i in range(scenario.n_brokers)):
        protocol, _, verifications, certificates, _ = totals[code(label)]
        brokers[label] = {"verifications": verifications,
                          "certificate_checks": certificates,
                          "protocol_bits": protocol}
    return {
        "oracle_bound": oracle_bound(scenario.n_clients,
                                     scenario.payload_bits),
        "servers": servers,
        "brokers": brokers,
        "degenerate": not all(row["delivered"] for row in servers.values()),
        "sizes": dict(SIZE_CONSTANTS),
    }


def convergence_sweep(m_values, n_clients: int = 1024) -> list[dict]:
    """Run the good-case batching scenario across batch sizes."""
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
