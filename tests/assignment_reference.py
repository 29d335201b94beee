"""The preloaded assignment kept as the reference the one-pass directory of
`batchcast.scenarios.preloaded_directory` is checked against
(tests/test_directory.py).

This is how a preloaded client's assignment was built, one client at a
time: its dense id, its keycard looked up by `ProcessId`, one `multisign`
shard per server 0 to 2f and `certify` of the shards.
"""

from __future__ import annotations

from batchcast.procs import client, servers
from batchcast.wire import Assignment, stmt_assignment


def dense_id(ordinal: int, n_servers: int):
    """Steady-state preload: clients round-robin over server domains."""
    return (ordinal % n_servers, ordinal // n_servers)


def build_assignment(oracle, scenario, ordinal: int) -> Assignment:
    ident = dense_id(ordinal, scenario.n_servers)
    keycard = oracle.keycard(client(ordinal))
    stmt = stmt_assignment(ident, keycard)
    signers = servers(scenario.n_servers)[:2 * scenario.fault_bound + 1]
    shards = {pid.ordinal: oracle.multisign(pid, stmt) for pid in signers}
    return Assignment(ident, keycard, oracle.certify(shards))
