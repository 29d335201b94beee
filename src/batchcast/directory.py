"""Consensus-less dense id assignment.

A joining client asks every server for an id.  Each server orders the
client's keycard in its own FIFO-broadcast log; once f+1 servers confirm some
server's log ranked the keycard, the client elects that server as its
assigner (write-once) and announces it.  Servers then sign
[Assignment, (assigner, index), keycard] where index is the keycard's
position in the assigner's log; 2f+1 matching signatures aggregate into the
quorum certificate that makes the assignment transferable.

Server and broker directories are plain views: the certified assignments
they imported, exported as the same objects.  A client keeps only its own.
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
    """Client-side signup state machine; hands the certified assignment to
    `on_complete(ctx, assignment)`."""

    f: int
    n_servers: int
    on_complete: object = None
    status: str = "outsider"  # outsider | signing_up | signed_up
    rankings: dict = field(default_factory=dict)   # domain -> {ordinal}
    assigner: int | None = None
    shards: dict = field(default_factory=dict)     # index -> {ordinal: msig}

    def signup(self, ctx):
        self.status = "signing_up"
        ctx.emit("signup")
        msg = Signup()
        for dst in servers(self.n_servers):
            ctx.send(dst, msg)

    def handle(self, ctx, src, msg) -> bool:
        if src.kind != ProcessKind.SERVER:
            return isinstance(msg, (Ranked, AssignShard))
        if isinstance(msg, Ranked):
            self.rankings.setdefault(msg.domain, set()).add(src.ordinal)
            self._pump(ctx)
            return True
        if isinstance(msg, AssignShard):
            if self.assigner is None:
                return True
            stmt = stmt_assignment((self.assigner, msg.index), ctx.keycard())
            if ctx.verify_aggregate([ctx.keycard(src)], stmt, msg.shard):
                self.shards.setdefault(msg.index, {})[src.ordinal] = msg.shard
                self._pump(ctx)
            return True
        return False

    def _pump(self, ctx):
        if self.assigner is None:
            for domain in sorted(self.rankings):
                if len(self.rankings[domain]) >= self.f + 1:
                    self.assigner = domain
                    msg = Assigner(domain)
                    for dst in servers(self.n_servers):
                        ctx.send(dst, msg)
                    break
        if self.status != "signing_up":
            return
        for index in sorted(self.shards):
            if len(self.shards[index]) >= 2 * self.f + 1:
                self.status = "signed_up"
                ident: Id = (self.assigner, index)
                a = Assignment(ident, ctx.keycard(),
                               ctx.certify(self.shards[index]))
                certified(ctx, a)
                ctx.emit("signup_complete", id=tuple(ident))
                if self.on_complete is not None:
                    self.on_complete(ctx, a)
                break


class ServerDirectory:
    """Server-side ranking and assignment signing.

    A pump can sign only after a ranking grew or an assigner was recorded;
    `_changed` says whether either happened since the last pump, which
    returns at once otherwise.
    """

    def __init__(self, n_servers: int, f: int):
        self.n_servers = n_servers
        self.f = f
        self.fifo = FifoBroadcast(n_servers, f, self._on_rank)
        self.rankings: dict[int, list] = {}    # origin ordinal -> [keycard]
        self.assigners: dict[bytes, int] = {}  # keycard -> domain (write-once)
        self.certified: set = set()
        self._changed = False

    def handle(self, ctx, src, msg) -> bool:
        if isinstance(msg, Signup):
            self.fifo.broadcast(ctx, ctx.keycard(src))
            return True
        if isinstance(msg, Assigner):
            keycard = ctx.keycard(src)
            if keycard not in self.assigners:
                self.assigners[keycard] = msg.domain
                self._changed = True
                ctx.emit("assigner_record", keycard=keycard.hex(),
                         assigner=msg.domain)
            self._pump(ctx)
            return True
        if self.fifo.handle(ctx, src, msg):
            self._pump(ctx)
            return True
        return False

    def _on_rank(self, ctx, origin: int, keycard: bytes):
        ranking = self.rankings.setdefault(origin, [])
        if keycard not in ranking:
            ranking.append(keycard)
            self._changed = True
            owner = ctx.owner(keycard)
            if owner is not None:
                ctx.send(owner, Ranked(origin))

    def _pump(self, ctx):
        if not self._changed:
            return
        self._changed = False
        for keycard in sorted(self.assigners):
            if keycard in self.certified:
                continue
            domain = self.assigners[keycard]
            ranking = self.rankings.get(domain, [])
            if keycard not in ranking:
                continue
            self.certified.add(keycard)
            index = ranking.index(keycard)
            shard = ctx.multisign(stmt_assignment((domain, index), keycard))
            owner = ctx.owner(keycard)
            if owner is not None:
                ctx.send(owner, AssignShard(index, shard))
