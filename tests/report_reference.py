"""The cost report kept as the reference `batchcast.metrics.amortized_report`
is checked against (tests/test_metrics.py).

It reads the trace one `TraceEvent` at a time, by name, and tallies each
process's bits and counts under the report's own field names.
"""

from __future__ import annotations

from collections import Counter

from batchcast.metrics import (DIRECTORY_TAGS, PAYLOAD_TAGS, SIZE_CONSTANTS,
                               oracle_bound)

SERVER_FIELDS = ("delivered", "protocol_bits", "directory_bits",
                 "verifications", "certificate_checks")
BROKER_FIELDS = ("verifications", "certificate_checks", "protocol_bits")


def reference_report(trace, scenario) -> dict:
    tally = Counter()  # (label, field) -> total
    for ev in trace:
        if ev.kind in ("send", "deliver") and ev.src != ev.dst:
            who = ev.src if ev.kind == "send" else ev.dst
            if ev.tag in PAYLOAD_TAGS:
                tally[who, "protocol_bits"] += 8 * ev.bytes_len
            elif ev.tag in DIRECTORY_TAGS:
                tally[who, "directory_bits"] += 8 * ev.bytes_len
        elif ev.kind == "verify":
            if ev.tag in ("verify", "verify_aggregate"):
                tally[ev.src, "verifications"] += 1
            elif ev.tag == "verify_certificate":
                tally[ev.src, "certificate_checks"] += 1
        elif ev.kind == "app_deliver":
            tally[ev.src, "delivered"] += 1
    servers = {}
    for i in range(scenario.n_servers):
        row = {field: tally[f"S{i}", field] for field in SERVER_FIELDS}
        delivered = row["delivered"]
        row["bits_per_payload"] = (row["protocol_bits"] / delivered
                                   if delivered else None)
        row["verifications_per_payload"] = (row["verifications"] / delivered
                                            if delivered else None)
        servers[f"S{i}"] = row
    brokers = {f"B{i}": {field: tally[f"B{i}", field]
                         for field in BROKER_FIELDS}
               for i in range(scenario.n_brokers)}
    return {
        "oracle_bound": oracle_bound(scenario.n_clients,
                                     scenario.payload_bits),
        "servers": servers,
        "brokers": brokers,
        "degenerate": any(row["delivered"] == 0 for row in servers.values()),
        "sizes": dict(SIZE_CONSTANTS),
    }
