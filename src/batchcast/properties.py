"""Post-hoc trace checker for the broadcast and directory properties.

The checker is protocol-agnostic: it consumes only application-level events
(broadcast, app_deliver, signup, dir_import, ...) plus the corruption markers
and scenario header, so a buggy protocol cannot share its bug with the
checker.  It reads the columns of the simulator's `Trace`; any other
records (forged traces, trace files) are appended into one first.  Every
failed property references the index of the offending trace event.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .simnet import Trace, TraceEvent

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

    def __init__(self, trace: Trace):
        t = trace
        self.header: dict = {}
        keycard_owner: dict[str, str] = {}
        for idx, _ in t.select("scenario")[:1]:
            self.header = h = t[idx].extra
            for prefix, count in (("S", h["servers"]),
                                  ("B", h["brokers"]),
                                  ("C", h["clients"])):
                for i in range(count):
                    keycard_owner[_keycard(prefix, i)] = f"{prefix}{i}"
        self.corrupted = {label for _, label in t.select("byzantine")}
        # (index, client, context, message)
        self.broadcasts = t.select("broadcast", ("context", "message"))
        # (index, server, client label or None, keycard, context, message)
        self.deliveries = [
            (idx, srv, keycard_owner.get(keycard), keycard, context, message)
            for idx, srv, keycard, context, message
            in t.select("app_deliver", ("client", "context", "message"))]
        self.signups: dict = {}        # label -> first index
        for idx, label in t.select("signup"):
            self.signups.setdefault(label, idx)
        self.completes: dict = {}      # label -> first index
        for idx, label in t.select("signup_complete"):
            self.completes.setdefault(label, idx)
        # (index, label, id, keycard, cert)
        self.imports = t.select("dir_import", ("id", "keycard", "cert"))
        self.first_import: dict = {}   # (label, keycard) -> first index
        for idx, label, _, keycard, _ in self.imports:
            self.first_import.setdefault((label, keycard), idx)
        self.rejects = t.select("dir_import_rejected",
                                ("id", "keycard", "cert"))
        # (index, server, keycard, assigner)
        self.assigner_records = t.select("assigner_record",
                                         ("keycard", "assigner"))
        # (index, server, origin, seq, payload)
        self.fb_delivers = t.select("fb_deliver", ("origin", "seq", "payload"))

    def correct(self, label: str) -> bool:
        return label not in self.corrupted

    def correct_servers(self) -> list[str]:
        return [f"S{i}" for i in range(self.header.get("servers", 0))
                if self.correct(f"S{i}")]


# ---------------------------------------------------------------------------
# broadcast properties

def check_no_duplication(t: TraceIndex) -> Verdict:
    seen = set()
    for idx, srv, _, keycard, context, _ in t.deliveries:
        if not t.correct(srv):
            continue
        key = (srv, keycard, context)
        if key in seen:
            return Verdict(False, idx, "second delivery for one context")
        seen.add(key)
    return Verdict(True)


def check_consistency(t: TraceIndex) -> Verdict:
    chosen = {}
    for idx, srv, _, keycard, context, message in t.deliveries:
        if not t.correct(srv):
            continue
        key = (keycard, context)
        if key in chosen and chosen[key] != message:
            return Verdict(False, idx, "conflicting messages delivered")
        chosen.setdefault(key, message)
    return Verdict(True)


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
    servers = t.correct_servers()
    per_server = {srv: set() for srv in servers}
    last = {}
    for idx, srv, _, keycard, context, _ in t.deliveries:
        if srv in per_server:
            per_server[srv].add((keycard, context))
            last[(keycard, context)] = idx
    union = set().union(*per_server.values()) if per_server else set()
    for key in sorted(union):
        for srv in servers:
            if key not in per_server[srv]:
                return Verdict(False, last[key],
                               f"{srv} missed a delivered payload")
    return Verdict(True)


# ---------------------------------------------------------------------------
# directory properties

def check_dir_bijectivity(t: TraceIndex) -> Verdict:
    id_to_card = {}
    card_to_id = {}
    for idx, label, ident, keycard, _ in t.imports:
        if not t.correct(label):
            continue
        if id_to_card.get(ident, keycard) != keycard:
            return Verdict(False, idx, "one id bound to two keycards")
        if card_to_id.get(keycard, ident) != ident:
            return Verdict(False, idx, "one keycard bound to two ids")
        id_to_card[ident] = keycard
        card_to_id[keycard] = ident
    return Verdict(True)


def check_signup_integrity(t: TraceIndex) -> Verdict:
    for label, idx in sorted(t.completes.items()):
        if not t.correct(label):
            continue
        if label not in t.signups or t.signups[label] > idx:
            return Verdict(False, idx, "completion before signup")
    return Verdict(True)


def check_signup_validity(t: TraceIndex) -> Verdict:
    for label, idx in sorted(t.signups.items()):
        if not t.correct(label):
            continue
        if label not in t.completes:
            return Verdict(False, idx, "signup never completed")
    return Verdict(True)


def check_self_knowledge(t: TraceIndex) -> Verdict:
    for label, idx in sorted(t.completes.items()):
        if not t.correct(label):
            continue
        first = t.first_import.get((label, _keycard(label[0], int(label[1:]))))
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
    total = (t.header.get("servers", 0) + t.header.get("brokers", 0)
             + t.header.get("clients", 0))
    for idx, label, ident, _, _ in t.imports:
        if not t.correct(label):
            continue
        if ident[1] >= total:
            return Verdict(False, idx, "index beyond process count")
    return Verdict(True)


def check_write_once_assigner(t: TraceIndex) -> Verdict:
    seen = {}
    for idx, srv, keycard, assigner in t.assigner_records:
        if not t.correct(srv):
            continue
        key = (srv, keycard)
        if key in seen and seen[key] != assigner:
            return Verdict(False, idx, "assigner entry overwritten")
        seen.setdefault(key, assigner)
    return Verdict(True)


# ---------------------------------------------------------------------------
# FIFO broadcast properties (server-to-server substrate)

def check_fifo_consistency(t: TraceIndex) -> Verdict:
    chosen = {}
    for idx, srv, origin, seq, payload in t.fb_delivers:
        if not t.correct(srv):
            continue
        key = (origin, seq)
        if key in chosen and chosen[key] != payload:
            return Verdict(False, idx, "slot delivered two payloads")
        chosen.setdefault(key, payload)
    return Verdict(True)


def check_fifo_totality(t: TraceIndex) -> Verdict:
    servers = t.correct_servers()
    per_server = {srv: set() for srv in servers}
    last = {}
    for idx, srv, origin, seq, _ in t.fb_delivers:
        if srv in per_server:
            per_server[srv].add((origin, seq))
            last[(origin, seq)] = idx
    union = set().union(*per_server.values()) if per_server else set()
    for key in sorted(union):
        for srv in servers:
            if key not in per_server[srv]:
                return Verdict(False, last[key],
                               f"{srv} missed slot {key}")
    return Verdict(True)


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
    seen = set()
    for idx, srv, origin, seq, _ in t.fb_delivers:
        if not t.correct(srv):
            continue
        key = (srv, origin, seq)
        if key in seen:
            return Verdict(False, idx, "slot delivered twice")
        seen.add(key)
    return Verdict(True)


_CHECKS = {
    "no_duplication": check_no_duplication,
    "consistency": check_consistency,
    "integrity": check_integrity,
    "validity": check_validity,
    "totality": check_totality,
    "dir_bijectivity": check_dir_bijectivity,
    "signup_integrity": check_signup_integrity,
    "signup_validity": check_signup_validity,
    "self_knowledge": check_self_knowledge,
    "transferability": check_transferability,
    "density": check_density,
    "write_once_assigner": check_write_once_assigner,
    "fifo_consistency": check_fifo_consistency,
    "fifo_totality": check_fifo_totality,
    "fifo_order": check_fifo_order,
    "fifo_no_duplication": check_fifo_no_duplication,
}


def check_trace(trace) -> dict[str, Verdict]:
    """Every property's verdict on a `Trace`, or on any iterable of records
    or `TraceEvent`s (see `Trace.of`)."""
    index = TraceIndex(Trace.of(trace))
    return {name: fn(index) for name, fn in _CHECKS.items()}


def load_trace_file(path: str) -> Trace:
    """Read a JSONL trace; raises ValueError naming the first bad line."""
    trace = Trace()
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                trace.append(TraceEvent.from_record(json.loads(line)))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
    return trace
