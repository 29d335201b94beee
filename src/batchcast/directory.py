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
from .procs import Id, ProcessKind, servers
from .wire import (Assigner, Assignment, AssignShard, Ranked, Signup,
                   stmt_assignment)


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
    """Local record of certified id assignments (bijective by construction):
    each id maps to the `Assignment` that brought it."""

    def __init__(self):
        self.by_id: dict[Id, Assignment] = {}
        self.by_keycard: dict[bytes, Id] = {}

    def lookup_id(self, ident: Id) -> bytes | None:
        a = self.by_id.get(ident)
        return None if a is None else a.keycard

    def lookup_keycard(self, keycard: bytes) -> Id | None:
        return self.by_keycard.get(keycard)

    def export(self, ident: Id) -> Assignment | None:
        return self.by_id.get(ident)

    def preload(self, a: Assignment):
        """Trusted bootstrap import (steady-state scenarios)."""
        self.by_id[a.ident] = a
        self.by_keycard[a.keycard] = a.ident

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

    f: int
    n_servers: int
    on_complete: object
    done: bool = False
    rankings: dict = field(default_factory=dict)   # domain -> {ordinal}
    assigner: int | None = None
    shards: dict = field(default_factory=dict)     # index -> {ordinal: msig}

    def signup(self, ctx):
        ctx.emit("signup")
        ctx.send_all(servers(self.n_servers), Signup())

    def handle(self, ctx, src, msg) -> bool:
        if src.kind != ProcessKind.SERVER:
            return isinstance(msg, (Ranked, AssignShard))
        if isinstance(msg, Ranked):
            rankers = self.rankings.setdefault(msg.domain, set())
            rankers.add(src.ordinal)
            # no other domain has f+1 rankers, or it would be the assigner
            if self.assigner is None and len(rankers) >= self.f + 1:
                self.assigner = msg.domain
                ctx.send_all(servers(self.n_servers), Assigner(msg.domain))
            return True
        if isinstance(msg, AssignShard):
            if self.assigner is None:
                return True
            ident: Id = (self.assigner, msg.index)
            stmt = stmt_assignment(ident, ctx.keycard())
            if not ctx.verify_aggregate([ctx.keycard(src)], stmt, msg.shard):
                return True
            shards = self.shards.setdefault(msg.index, {})
            shards[src.ordinal] = msg.shard
            if not self.done and len(shards) >= 2 * self.f + 1:
                self.done = True
                a = Assignment(ident, ctx.keycard(), ctx.certify(shards))
                certified(ctx, a)
                ctx.emit("signup_complete", id=tuple(ident))
                self.on_complete(ctx, a)
            return True
        return False


class ServerDirectory:
    """Server-side ranking and assignment signing: a keycard is signed once,
    at the later of its assigner's record and its place in that assigner's
    FIFO log."""

    def __init__(self, n_servers: int, f: int):
        self.fifo = FifoBroadcast(n_servers, f, self._on_rank)
        self.rankings: dict[int, list] = {}    # origin ordinal -> [keycard]
        self.assigners: dict[bytes, int] = {}  # keycard -> domain (write-once)

    def handle(self, ctx, src, msg) -> bool:
        if isinstance(msg, Signup):
            self.fifo.broadcast(ctx, ctx.keycard(src))
            return True
        if isinstance(msg, Assigner):
            keycard = ctx.keycard(src)
            if keycard not in self.assigners:
                self.assigners[keycard] = msg.domain
                ctx.emit("assigner_record", keycard=keycard.hex(),
                         assigner=msg.domain)
                ranking = self.rankings.get(msg.domain, [])
                if keycard in ranking:
                    self._sign(ctx, keycard, msg.domain, ranking.index(keycard))
            return True
        return self.fifo.handle(ctx, src, msg)

    def _on_rank(self, ctx, origin: int, keycard: bytes):
        ranking = self.rankings.setdefault(origin, [])
        if keycard not in ranking:
            ranking.append(keycard)
            owner = ctx.owner(keycard)
            if owner is not None:
                ctx.send(owner, Ranked(origin))
            if self.assigners.get(keycard) == origin:
                self._sign(ctx, keycard, origin, len(ranking) - 1)

    def _sign(self, ctx, keycard: bytes, domain: int, index: int):
        shard = ctx.multisign(stmt_assignment((domain, index), keycard))
        owner = ctx.owner(keycard)
        if owner is not None:
            ctx.send(owner, AssignShard(index, shard))
