"""Post-hoc trace checker for the broadcast and directory properties.

The checker is protocol-agnostic: it consumes only application-level events
(broadcast, app_deliver, signup, dir_import, ...) plus the corruption markers
and scenario header, so a buggy protocol cannot share its bug with the
checker.  It reads the columns of the simulator's `Trace`; any other
records (forged traces, trace files) are written into one first, each
checked against the record schema (`simnet._EXTRA_KEYS`).  Every
failed property references the index of the offending trace event.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from operator import itemgetter

from .simnet import PROCESS_LABEL, Trace, parse_json

CSB_PROPERTIES = ("no_duplication", "consistency", "integrity", "validity",
                  "totality")
DIR_PROPERTIES = ("dir_bijectivity", "signup_integrity", "signup_validity",
                  "self_knowledge", "transferability", "density",
                  "write_once_assigner")
FIFO_PROPERTIES = ("fifo_consistency", "fifo_totality", "fifo_order",
                   "fifo_no_duplication")
ALL_PROPERTIES = CSB_PROPERTIES + DIR_PROPERTIES + FIFO_PROPERTIES


@dataclass
class Verdict:
    ok: bool
    counterexample: int | None = None
    detail: str = ""

    def to_json(self):
        return {"ok": self.ok, "counterexample": self.counterexample,
                "detail": self.detail}


def _keycard(kind_char: str, ordinal: int) -> str:
    kind = {"S": 0, "B": 1, "C": 2}[kind_char]
    return hashlib.sha384(b"keycard|%d|%d" % (kind, ordinal)).digest().hex()


class TraceIndex:
    """Application-level facts, read from a `Trace`'s side tables.

    Each list holds tuples (index, src label, fields...) in trace order.
    """

    def __init__(self, t: Trace):
        self.counts = (0, 0, 0)  # the header's servers, brokers and clients
        keycard_owner: dict[str, str] = {}
        for _, _, *counts in t.select("scenario")[:1]:
            self.counts = counts
            for prefix, count in zip("SBC", counts):
                for i in range(count):
                    keycard_owner[_keycard(prefix, i)] = f"{prefix}{i}"
        self.corrupted = {label for _, label in t.select("byzantine")}
        # (index, client, context, message)
        self.broadcasts = t.select("broadcast")
        # (index, server, client label or None, keycard, context, message)
        self.deliveries = [
            (idx, srv, keycard_owner.get(keycard), keycard, context, message)
            for idx, srv, keycard, context, message in t.scan("app_deliver")]
        self.signups = _first_by_label(t.select("signup"))
        self.completes = _first_by_label(t.select("signup_complete"))
        # (index, label, id, keycard, cert)
        self.imports = t.select("dir_import")
        self.first_import: dict = {}   # (label, keycard) -> first index
        for idx, label, _, keycard, _ in self.imports:
            self.first_import.setdefault((label, keycard), idx)
        self.rejects = t.select("dir_import_rejected")
        # (index, server, keycard, assigner)
        self.assigner_records = t.select("assigner_record")
        # (index, server, origin, seq, payload)
        self.fb_delivers = t.select("fb_deliver")

    def correct(self, label: str) -> bool:
        return label not in self.corrupted

    def correct_servers(self) -> list[str]:
        return [f"S{i}" for i in range(self.counts[0])
                if self.correct(f"S{i}")]


def _first_by_label(rows) -> dict:
    """label -> first index, in label order (a null label sorts as "None")."""
    first = {label: idx for idx, label in reversed(rows)}
    return dict(sorted(first.items(), key=lambda item: str(item[0])))


# ---------------------------------------------------------------------------
# rules shared by several properties; rows are (index, src label, ...) and
# only rows from correct processes count

def _first_repeat(t: TraceIndex, rows, key, detail: str) -> Verdict:
    """Fails at the first row whose `key` an earlier row had."""
    seen = set()
    for row in rows:
        if t.correct(row[1]):
            if (k := key(row)) in seen:
                return Verdict(False, row[0], detail)
            seen.add(k)
    return Verdict(True)


def _first_conflict(t: TraceIndex, rows, *rules) -> Verdict:
    """Fails at the first row whose value under a (key, value, detail) rule
    differs from that of the first row with its key; rules go in order."""
    rules = [({}.setdefault, *rule) for rule in rules]
    for row in rows:
        if t.correct(row[1]):
            for choose, key, value, detail in rules:
                if choose(key(row), v := value(row)) != v:
                    return Verdict(False, row[0], detail)
    return Verdict(True)


def _every_server_delivers(t: TraceIndex, rows, key, detail: str) -> Verdict:
    """Fails at the last row of the least key some correct server lacks."""
    servers = t.correct_servers()
    per_server = {srv: set() for srv in servers}
    last = {}
    for row in rows:
        if row[1] in per_server:
            per_server[row[1]].add(k := key(row))
            last[k] = row[0]
    for k in sorted(set().union(*per_server.values())):
        for srv in servers:
            if k not in per_server[srv]:
                return Verdict(False, last[k], detail.format(srv=srv, key=k))
    return Verdict(True)


# ---------------------------------------------------------------------------
# broadcast properties

def check_no_duplication(t: TraceIndex) -> Verdict:
    return _first_repeat(t, t.deliveries, itemgetter(1, 3, 4),
                         "second delivery for one context")


def check_consistency(t: TraceIndex) -> Verdict:
    return _first_conflict(t, t.deliveries, (itemgetter(3, 4), itemgetter(5),
                                             "conflicting messages delivered"))


def check_integrity(t: TraceIndex) -> Verdict:
    issued = {}
    for idx, client, context, message in t.broadcasts:
        issued.setdefault((client, context, message), idx)
    for idx, srv, client, _, context, message in t.deliveries:
        if not t.correct(srv):
            continue
        if client is None or client[0] != "C" or not t.correct(client):
            continue
        first = issued.get((client, context, message))
        if first is None or first > idx:
            return Verdict(False, idx, "delivery without matching broadcast")
    return Verdict(True)


def check_validity(t: TraceIndex) -> Verdict:
    delivered = {(client, context)
                 for _, srv, client, _, context, _ in t.deliveries
                 if t.correct(srv)}
    for idx, client, context, _ in t.broadcasts:
        if not t.correct(client):
            continue
        if (client, context) not in delivered:
            return Verdict(False, idx, "broadcast never delivered")
    return Verdict(True)


def check_totality(t: TraceIndex) -> Verdict:
    return _every_server_delivers(t, t.deliveries, itemgetter(3, 4),
                                  "{srv} missed a delivered payload")


# ---------------------------------------------------------------------------
# directory properties

def check_dir_bijectivity(t: TraceIndex) -> Verdict:
    ident, card = itemgetter(2), itemgetter(3)  # (index, label, id, keycard..)
    return _first_conflict(t, t.imports,
                           (ident, card, "one id bound to two keycards"),
                           (card, ident, "one keycard bound to two ids"))


def check_signup_integrity(t: TraceIndex) -> Verdict:
    for label, idx in t.completes.items():
        if not t.correct(label):
            continue
        if label not in t.signups or t.signups[label] > idx:
            return Verdict(False, idx, "completion before signup")
    return Verdict(True)


def check_signup_validity(t: TraceIndex) -> Verdict:
    for label, idx in t.signups.items():
        if not t.correct(label):
            continue
        if label not in t.completes:
            return Verdict(False, idx, "signup never completed")
    return Verdict(True)


def check_self_knowledge(t: TraceIndex) -> Verdict:
    for label, idx in t.completes.items():
        if not t.correct(label):
            continue
        m = PROCESS_LABEL.fullmatch(str(label))  # None: not a process label
        first = t.first_import.get((label, m and _keycard(m[1], int(m[2]))))
        if first is None or first > idx:
            return Verdict(False, idx, "completed signup without own id")
    return Verdict(True)


def check_transferability(t: TraceIndex) -> Verdict:
    accepted = {(ident, keycard, cert)
                for _, label, ident, keycard, cert in t.imports
                if t.correct(label) and cert is not None}
    for idx, label, ident, keycard, cert in t.rejects:
        if not t.correct(label) or cert is None:
            continue
        if (ident, keycard, cert) in accepted:
            return Verdict(False, idx,
                           "correct process rejected a valid assignment")
    return Verdict(True)


def check_density(t: TraceIndex) -> Verdict:
    total = sum(t.counts)
    for idx, label, ident, _, _ in t.imports:
        if not t.correct(label):
            continue
        if ident[1] >= total:
            return Verdict(False, idx, "index beyond process count")
    return Verdict(True)


def check_write_once_assigner(t: TraceIndex) -> Verdict:
    return _first_conflict(t, t.assigner_records, (
        itemgetter(1, 2), itemgetter(3), "assigner entry overwritten"))


# ---------------------------------------------------------------------------
# FIFO broadcast properties (server-to-server substrate)

def check_fifo_consistency(t: TraceIndex) -> Verdict:
    return _first_conflict(t, t.fb_delivers, (itemgetter(2, 3), itemgetter(4),
                                              "slot delivered two payloads"))


def check_fifo_totality(t: TraceIndex) -> Verdict:
    return _every_server_delivers(t, t.fb_delivers, itemgetter(2, 3),
                                  "{srv} missed slot {key}")


def check_fifo_order(t: TraceIndex) -> Verdict:
    next_seq: dict = {}
    for idx, srv, origin, seq, _ in t.fb_delivers:
        if not t.correct(srv):
            continue
        expected = next_seq.get((srv, origin), 0)
        if seq != expected:
            return Verdict(False, idx, "out-of-order fifo delivery")
        next_seq[(srv, origin)] = expected + 1
    return Verdict(True)


def check_fifo_no_duplication(t: TraceIndex) -> Verdict:
    return _first_repeat(t, t.fb_delivers, itemgetter(1, 2, 3),
                         "slot delivered twice")


_CHECKS = {name: globals()[f"check_{name}"] for name in ALL_PROPERTIES}


def check_trace(trace) -> dict[str, Verdict]:
    """Every property's verdict on a `Trace`, or on any iterable of records
    or `TraceEvent`s (see `Trace.of`)."""
    index = TraceIndex(Trace.of(trace))
    return {name: fn(index) for name, fn in _CHECKS.items()}


def load_trace_file(path: str) -> Trace:
    """Read a UTF-8 JSONL trace; ValueError names the first bad line, or
    line 1 if the first record is not the scenario header."""
    trace = Trace()
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                line = line.decode("utf-8").strip()
                if line:
                    trace.add_record(parse_json(line))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
    header = next(trace.scan("scenario"), None)
    if header is None or header[0] != 0:
        raise ValueError("line 1: the first record is not a scenario header")
    return trace
