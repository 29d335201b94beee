"""Consensus-less dense id assignment.

A joining client asks every server for an id.  Each server ranks the
client's keycard in its own FIFO-broadcast log; at f+1 servers confirming
one log's ranking, the client elects that log's server as its assigner
(write-once) and announces it.  A server signs [Assignment, (assigner,
index), keycard], index being the keycard's place in the assigner's log,
once it holds both; 2f+1 valid shards for one index aggregate into the
quorum certificate that makes the assignment transferable.

Server and broker directories are plain views: the certified assignments
they imported, exported as the same objects.  A client keeps only its own,
and only a client that signs up live keeps signup state.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .fifocast import FifoBroadcast
from .procs import Id, ProcessKind
from .wire import (Assigner, Assignment, AssignShard, FifoEcho, FifoReady,
                   FifoSend, Ranked, Signup, stmt_assignment)

DIRECTORY_MESSAGES = (Signup, Assigner, FifoSend, FifoEcho, FifoReady)


def cert_fingerprint(cert) -> str:
    try:
        blob = cert.msig + b"".join(b"%d" % o for o in sorted(cert.signers))
    except (AttributeError, TypeError):
        return ""
    return hashlib.sha256(blob).hexdigest()


def certified(ctx, a: Assignment) -> bool:
    """Check `a`'s quorum certificate and record the import or rejection."""
    fingerprint = cert_fingerprint(a.certificate)
    if not ctx.verify_quorum(a.certificate,
                             stmt_assignment(a.ident, a.keycard)):
        ctx.emit("dir_import_rejected", id=tuple(a.ident),
                 keycard=a.keycard.hex(), cert=fingerprint)
        return False
    ctx.emit("dir_import", id=tuple(a.ident), keycard=a.keycard.hex(),
             cert=fingerprint)
    return True


class DirectoryView:
    """Local record of certified id assignments: each id maps to the
    `Assignment` that brought it.  A quorum certificate binds one keycard to
    one id, so the view is bijective with no keycard -> id map."""

    def __init__(self):
        self.by_id: dict[Id, Assignment] = {}

    def lookup_id(self, ident: Id) -> bytes | None:
        a = self.by_id.get(ident)
        return None if a is None else a.keycard

    def export(self, ident: Id) -> Assignment | None:
        return self.by_id.get(ident)

    def preload(self, a: Assignment):
        """Trusted bootstrap import (steady-state scenarios)."""
        self.by_id[a.ident] = a

    def import_assignment(self, ctx, a: Assignment) -> bool:
        """Verify the quorum certificate and record the pair; idempotent."""
        if not isinstance(a, Assignment):
            return False
        if self.lookup_id(a.ident) == a.keycard:
            return True
        if not certified(ctx, a):
            return False
        self.preload(a)
        return True


@dataclass
class ClientSignup:
    """A joining client's signup: elects its assigner at the first f+1
    servers ranking it in one log, and completes at the first index that
    2f+1 servers sign, handing the certified assignment to
    `on_complete(ctx, assignment)`."""

    on_complete: object
    done: bool = False
    rankings: dict = field(default_factory=dict)   # domain -> {ordinal}
    assigner: int | None = None
    shards: dict = field(default_factory=dict)     # index -> {ordinal: msig}

    def signup(self, ctx):
        ctx.emit("signup")
        ctx.send_all(ctx.servers, Signup())

    def handle(self, ctx, src, msg):
        if src.kind != ProcessKind.SERVER:
            return
        if isinstance(msg, Ranked):
            rankers = self.rankings.setdefault(msg.domain, set())
            rankers.add(src.ordinal)
            # no other domain has f+1 rankers, or it would be the assigner
            if self.assigner is None and len(rankers) >= ctx.plurality:
                self.assigner = msg.domain
                ctx.send_all(ctx.servers, Assigner(msg.domain))
            return
        if self.assigner is None:  # an AssignShard before the election
            return
        ident: Id = (self.assigner, msg.index)
        stmt = stmt_assignment(ident, ctx.keycard())
        if not ctx.verify_aggregate([ctx.keycard(src)], stmt, msg.shard):
            return
        shards = self.shards.setdefault(msg.index, {})
        shards[src.ordinal] = msg.shard
        if not self.done and len(shards) >= ctx.quorum:
            self.done = True
            a = Assignment(ident, ctx.keycard(), ctx.certify(shards))
            certified(ctx, a)
            ctx.emit("signup_complete", id=tuple(ident))
            self.on_complete(ctx, a)


class ServerDirectory:
    """Server-side ranking and assignment signing: a keycard is signed once,
    at the later of its assigner's record and its place in that assigner's
    FIFO log."""

    def __init__(self):
        self.fifo = FifoBroadcast(self._on_rank)
        self.rankings: dict[int, dict] = {}    # origin -> {keycard: index}
        self.assigners: dict[bytes, int] = {}  # keycard -> domain (write-once)

    def handle(self, ctx, src, msg):
        """One of the `DIRECTORY_MESSAGES`, which a server hands it."""
        if isinstance(msg, Signup):
            self.fifo.broadcast(ctx, ctx.keycard(src))
        elif isinstance(msg, Assigner):
            keycard = ctx.keycard(src)
            if keycard not in self.assigners:
                self.assigners[keycard] = msg.domain
                ctx.emit("assigner_record", keycard=keycard.hex(),
                         assigner=msg.domain)
                index = self.rankings.get(msg.domain, {}).get(keycard)
                if index is not None:
                    self._sign(ctx, keycard, msg.domain, index)
        else:
            self.fifo.handle(ctx, src, msg)

    def _on_rank(self, ctx, origin: int, keycard: bytes):
        ranking = self.rankings.setdefault(origin, {})
        if keycard not in ranking:
            index = ranking[keycard] = len(ranking)
            owner = ctx.owner(keycard)
            if owner is not None:
                ctx.send(owner, Ranked(origin))
            if self.assigners.get(keycard) == origin:
                self._sign(ctx, keycard, origin, index)

    def _sign(self, ctx, keycard: bytes, domain: int, index: int):
        shard = ctx.multisign(stmt_assignment((domain, index), keycard))
        owner = ctx.owner(keycard)
        if owner is not None:
            ctx.send(owner, AssignShard(index, shard))
