"""Post-hoc trace checker for the broadcast and directory properties.

The checker is protocol-agnostic: it consumes only application-level events
(broadcast, app_deliver, signup, dir_import, ...) plus the corruption markers
and scenario header, so a buggy protocol cannot share its bug with the
checker.  It reads the simulator's `TraceEvent` records as they are; dict
records (forged traces) are turned into them first.  Every failed property
references the index of the offending trace event.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .simnet import TraceEvent

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
    """One pass over the trace, collecting application-level facts."""

    def __init__(self, records):
        self.records = list(records)
        self.header = {}
        self.corrupted: set[str] = set()
        self.broadcasts: list = []     # (index, client, context, message)
        self.deliveries: list = []     # (index, server, client_label|None,
                                       #  keycard, context, message)
        self.signups: dict = {}        # label -> first index
        self.completes: dict = {}      # label -> first index
        self.imports: list = []        # (index, label, id, keycard, cert)
        self.first_import: dict = {}   # (label, keycard) -> first index
        self.rejects: list = []        # (index, label, id, keycard, cert)
        self.assigner_records: list = []  # (index, server, keycard, assigner)
        self.fb_delivers: list = []       # (index, server, origin, seq, payload)
        self._scan()

    def _scan(self):
        keycard_owner: dict[str, str] = {}
        for ev in self.records:
            if ev.kind == "scenario":
                self.header = h = ev.extra
                for prefix, count in (("S", h["servers"]),
                                      ("B", h["brokers"]),
                                      ("C", h["clients"])):
                    for i in range(count):
                        keycard_owner[_keycard(prefix, i)] = f"{prefix}{i}"
                break
        for idx, ev in enumerate(self.records):
            kind = ev.kind
            x = ev.extra
            if kind == "byzantine":
                self.corrupted.add(ev.src)
            elif kind == "broadcast":
                self.broadcasts.append((idx, ev.src, x["context"],
                                        x["message"]))
            elif kind == "app_deliver":
                self.deliveries.append((idx, ev.src,
                                        keycard_owner.get(x["client"]),
                                        x["client"], x["context"],
                                        x["message"]))
            elif kind == "signup":
                self.signups.setdefault(ev.src, idx)
            elif kind == "signup_complete":
                self.completes.setdefault(ev.src, idx)
            elif kind == "dir_import":
                self.imports.append((idx, ev.src, tuple(x["id"]),
                                     x["keycard"], x.get("cert")))
                self.first_import.setdefault((ev.src, x["keycard"]), idx)
            elif kind == "dir_import_rejected":
                self.rejects.append((idx, ev.src, tuple(x["id"]),
                                     x["keycard"], x.get("cert")))
            elif kind == "assigner_record":
                self.assigner_records.append((idx, ev.src, x["keycard"],
                                              x["assigner"]))
            elif kind == "fb_deliver":
                self.fb_delivers.append((idx, ev.src, x["origin"],
                                         x["seq"], x["payload"]))

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
    index = TraceIndex(ev if isinstance(ev, TraceEvent)
                       else TraceEvent.from_record(ev) for ev in trace)
    return {name: fn(index) for name, fn in _CHECKS.items()}


def load_trace_file(path: str) -> list[TraceEvent]:
    """Read a JSONL trace; raises ValueError naming the first bad line."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(TraceEvent.from_record(json.loads(line)))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
    return records
