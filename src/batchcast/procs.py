"""Process identities, labels and bounds (read by both the scenario rules
and the trace schema), and client ids."""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

# the most servers, brokers and clients a scenario may have
PROCESS_BOUNDS = {"servers": 1 << 8, "brokers": 1 << 8, "clients": 1 << 16}
PROCESS_LABEL = re.compile(r"([SBC])(0|[1-9][0-9]*)")  # a process label


class ProcessKind(enum.IntEnum):
    SERVER = 0
    BROKER = 1
    CLIENT = 2


@dataclass(frozen=True, order=True)
class ProcessId:
    kind: ProcessKind
    ordinal: int

    def __repr__(self):
        if self.kind in (0, 1, 2):
            return "%s%d" % ("SBC"[self.kind], self.ordinal)
        return "ProcessId(%r, %r)" % (self.kind, self.ordinal)

    @property
    def label(self) -> str:
        return repr(self)


def server(n: int) -> ProcessId:
    return ProcessId(ProcessKind.SERVER, n)


def servers(n: int) -> tuple[ProcessId, ...]:
    """The ids of servers 0 to n - 1: a simulation builds them once, and
    every context carries that tuple (see `simnet.Context`)."""
    return tuple(server(i) for i in range(n))


def broker(n: int) -> ProcessId:
    return ProcessId(ProcessKind.BROKER, n)


def brokers(n: int) -> tuple[ProcessId, ...]:
    """The ids of brokers 0 to n - 1, built and carried as `servers`."""
    return tuple(broker(i) for i in range(n))


def client(n: int) -> ProcessId:
    return ProcessId(ProcessKind.CLIENT, n)


# A client id is (domain, index): the ordinal of the server whose log ranked
# the client, and the client's position in that log.  The total order is
# lexicographic, which fixes the canonical batch leaf order.
Id = tuple[int, int]
