"""Client, broker and server state machines for the batched broadcast.

A round, in the good case: clients hand signed (context, message) payloads to
a broker; the broker pools them (one per id), builds a Merkle tree over the
sorted (id, context, message) leaves, and shows each client its inclusion
proof; clients answer with a multi-signature over the root, which replaces
their individual signature.  The broker disseminates the batch with compressed
ids, supplies signatures and missing id assignments on demand, gathers a
plurality witness over the root, then a quorum of commit shards whose
exception sets must each be justified by an equivocation proof, and finally a
plurality of completion shards that let clients stop resubmitting.  Servers
deliver every non-excluded payload on commit, and offer the batch to each
other afterwards so no server is left behind.

Timer constants: Reduce = 2 ticks, Committable = 4, OfferTotality = 7; client
resubmission = 13 + batching window.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field

from .crypto import MerkleTree, merkle_verify
from .directory import ClientSignup, DirectoryView, ServerDirectory
from .encoding import compress_ids, expand_ids
from .procs import Id, ProcessId, ProcessKind, brokers, servers
from .simnet import Context, Machine
from .wire import (AcceptTotality, Assignment, BatchAcquired, BatchMsg,
                   Commit, CommitShard, Completion, CompletionShard,
                   EquivocationProof, Inclusion, OfferTotality, Reduction,
                   Signatures, Submission, Totality, Witness, WitnessShard,
                   leaf_bytes, stmt_commit, stmt_completion, stmt_message,
                   stmt_reduction, stmt_witness)

REDUCE_TIMEOUT = 2
COMMITTABLE_TIMEOUT = 4
OFFER_TOTALITY_TIMEOUT = 7
RESUBMIT_BASE = 13


def canonical_compressed(ids) -> tuple:
    mu = compress_ids(ids)
    return tuple((d, tuple(sorted(mu[d]))) for d in sorted(mu))


def _leaves(ids, payloads) -> list:
    """The Merkle leaves of a batch: each id with its (context, message)."""
    return [leaf_bytes(i, c, m) for i, (c, m) in zip(ids, payloads)]


def exclusion_union(patches) -> frozenset:
    """The ids that any of a commit's (exceptions, certificate) patches
    excludes."""
    return frozenset().union(*(exceptions for exceptions, _ in patches))


# ---------------------------------------------------------------------------
# client

@dataclass
class _Submission:
    message: bytes
    signature: bytes
    submitted_to: set = field(default_factory=set)  # broker ordinals
    included_in: set = field(default_factory=set)   # roots


class ClientMachine(Machine):
    def __init__(self, n_servers: int, n_brokers: int, f: int,
                 batching_window: int = 0, plan=(), broker_order=None,
                 preloaded: Assignment | None = None):
        self.brokers = brokers(n_brokers)
        self.batching_window = batching_window
        self.plan = list(plan)  # [(delay, context, message)]
        self.broker_order = list(broker_order) if broker_order else None
        self.assignment = preloaded  # this client's own, once it has one
        self.signup = ClientSignup(f, n_servers, on_complete=self._signed_up)
        self.submissions: dict[bytes, _Submission] = {}

    # -- lifecycle ------------------------------------------------------------

    def on_start(self, ctx: Context):
        a = self.assignment
        if a is not None:
            ctx.emit("dir_import", id=tuple(a.ident), keycard=a.keycard.hex())
            self.signup.status = "signed_up"
            self._schedule_plan(ctx)
        else:
            self.signup.signup(ctx)

    def _signed_up(self, ctx: Context, assignment: Assignment):
        self.assignment = assignment
        self._schedule_plan(ctx)

    def _schedule_plan(self, ctx: Context):
        for i, (delay, _, _) in enumerate(self.plan):
            ctx.set_timer(("broadcast", i), delay)

    # -- broadcast ------------------------------------------------------------

    def broadcast(self, ctx: Context, context: bytes, message: bytes):
        if context in self.submissions:
            return  # one live submission per context
        signature = ctx.sign(stmt_message(context, message))
        self.submissions[context] = _Submission(message, signature)
        ctx.emit("broadcast", context=context.hex(), message=message.hex())
        self._submit(ctx, context)

    def _submit(self, ctx: Context, context: bytes):
        sub = self.submissions.get(context)
        if sub is None:
            return
        order = self.broker_order or range(len(self.brokers))
        target = next((b for b in order if b not in sub.submitted_to), None)
        if target is None:
            return
        ctx.send(self.brokers[target],
                 Submission(self.assignment, context, sub.message,
                            sub.signature))
        sub.submitted_to.add(target)
        ctx.set_timer(("submit", context), RESUBMIT_BASE + self.batching_window)

    # -- events ---------------------------------------------------------------

    def on_timer(self, ctx: Context, tag: tuple):
        if tag[0] == "broadcast":
            _, context, message = self.plan[tag[1]]
            self.broadcast(ctx, context, message)
        elif tag[0] == "submit":
            self._submit(ctx, tag[1])

    def on_message(self, ctx: Context, src: ProcessId, msg):
        if self.signup.handle(ctx, src, msg):
            return
        if isinstance(msg, Inclusion):
            self._on_inclusion(ctx, src, msg)
        elif isinstance(msg, Completion):
            self._on_completion(ctx, src, msg)

    def _on_inclusion(self, ctx: Context, src: ProcessId, msg: Inclusion):
        sub = self.submissions.get(msg.context)
        if sub is None or msg.root in sub.included_in:
            return
        leaf = leaf_bytes(self.assignment.ident, msg.context, sub.message)
        if not merkle_verify(msg.root, msg.proof, msg.proof.index, leaf):
            return  # a substituted payload fails the proof: stay silent
        sub.included_in.add(msg.root)
        ctx.send(src, Reduction(msg.root, ctx.multisign(stmt_reduction(msg.root))))

    def _on_completion(self, ctx: Context, src: ProcessId, msg: Completion):
        if not ctx.verify_plurality(msg.certificate,
                                    stmt_completion(msg.root, msg.exclusions)):
            return
        if self.assignment is None or self.assignment.ident in msg.exclusions:
            return  # not signed up, or excluded: keep resubmitting
        # the root's Inclusion came first on this broker's FIFO link
        for context in list(self.submissions):
            if msg.root in self.submissions[context].included_in:
                del self.submissions[context]
                ctx.emit("submission_complete", context=context.hex())


# ---------------------------------------------------------------------------
# broker

class Phase(enum.Enum):
    REDUCING = enum.auto()
    WITNESSING = enum.auto()
    COMMITTING = enum.auto()
    COMPLETING = enum.auto()


@dataclass
class _Batch:
    payloads: dict              # Id -> (context, message), insertion = id order
    signatures: dict            # Id -> signature (stragglers-to-be)
    reductions: dict            # Id -> multisignature
    root: bytes
    phase: Phase = Phase.REDUCING
    commit_to: set = field(default_factory=set)      # server ordinals
    committable: bool = False
    witnesses: dict = field(default_factory=dict)    # ordinal -> msig
    commits: dict = field(default_factory=dict)      # ordinal -> (ids, msig)
    exclusions: frozenset = frozenset()
    completions: dict = field(default_factory=dict)  # ordinal -> msig


class BrokerMachine(Machine):
    def __init__(self, n_servers: int, f: int, batching_window: int = 0):
        self.servers = servers(n_servers)
        self.f = f
        self.batching_window = batching_window
        self.view = DirectoryView()
        self.pending: dict[Id, deque] = {}   # Id -> deque of Submission
        self.pool: dict[Id, Submission] = {}
        self._ready: set = set()  # ids with a pending submission, not pooled
        self.collecting = False
        self.batches: dict[bytes, _Batch] = {}

    # -- events ---------------------------------------------------------------

    def on_message(self, ctx: Context, src: ProcessId, msg):
        if isinstance(msg, Submission):
            self._on_submission(ctx, src, msg)
        elif isinstance(msg, Reduction):
            self._on_reduction(ctx, src, msg)
        elif isinstance(msg, BatchAcquired):
            self._on_batch_acquired(ctx, src, msg)
        elif isinstance(msg, WitnessShard):
            self._on_witness_shard(ctx, src, msg)
        elif isinstance(msg, CommitShard):
            self._on_commit_shard(ctx, src, msg)
        elif isinstance(msg, CompletionShard):
            self._on_completion_shard(ctx, src, msg)
        self._pump(ctx)

    def on_timer(self, ctx: Context, tag: tuple):
        if tag[0] == "flush":
            self._flush(ctx)
        elif tag[0] == "reduce":
            self._reduce(ctx, tag[1])
        elif tag[0] == "committable":
            batch = self.batches.get(tag[1])
            if batch is not None:
                batch.committable = True
        self._pump(ctx)

    # -- pooling --------------------------------------------------------------

    def _on_submission(self, ctx: Context, src: ProcessId, msg: Submission):
        if not self.view.import_assignment(ctx, msg.assignment):
            return
        ident = msg.assignment.ident
        if not ctx.verify(msg.assignment.keycard,
                          stmt_message(msg.context, msg.message),
                          msg.signature):
            return
        self.pending.setdefault(ident, deque()).append(msg)
        if ident not in self.pool:
            self._ready.add(ident)

    def _pump(self, ctx: Context):
        for ident in sorted(self._ready):
            self.pool[ident] = self.pending[ident].popleft()
            if not self.pending[ident]:
                del self.pending[ident]
        self._ready.clear()
        if self.pool and not self.collecting:
            self.collecting = True
            ctx.set_timer(("flush",), self.batching_window)
        for root in sorted(self.batches):
            self._advance(ctx, root)

    def _flush(self, ctx: Context):
        self.collecting = False
        if not self.pool:
            return
        submissions = self.pool
        self.pool = {}
        ids = sorted(submissions)
        self._ready.update(i for i in ids if self.pending.get(i))
        payloads = {i: (submissions[i].context, submissions[i].message)
                    for i in ids}
        tree = MerkleTree(_leaves(ids, payloads.values()))
        root = tree.root()
        for pos, ident in enumerate(ids):
            sub = submissions[ident]
            ctx.send(ctx.owner(sub.assignment.keycard),
                     Inclusion(sub.context, root, tree.prove(pos)))
        self.batches[root] = _Batch(
            payloads=payloads,
            signatures={i: submissions[i].signature for i in ids},
            reductions={}, root=root)
        ctx.set_timer(("reduce", root), REDUCE_TIMEOUT)

    # -- reduction -------------------------------------------------------------

    def _on_reduction(self, ctx: Context, src: ProcessId, msg: Reduction):
        batch = self.batches.get(msg.root)
        if batch is None or batch.phase is not Phase.REDUCING:
            return
        ident = self.view.lookup_keycard(ctx.keycard(src))
        if ident is None or ident not in batch.signatures:
            return
        if not ctx.verify_aggregate([ctx.keycard(src)],
                                    stmt_reduction(msg.root), msg.msig):
            return
        batch.reductions[ident] = msg.msig
        del batch.signatures[ident]

    def _reduce(self, ctx: Context, root: bytes):
        batch = self.batches.get(root)
        if batch is None or batch.phase is not Phase.REDUCING:
            return
        msg = BatchMsg(canonical_compressed(batch.payloads),
                       tuple(batch.payloads.values()))
        for dst in self.servers:
            ctx.send(dst, msg)
        batch.phase = Phase.WITNESSING
        batch.witnesses = {}
        ctx.set_timer(("committable", root), COMMITTABLE_TIMEOUT)

    # -- witnessing ------------------------------------------------------------

    def _on_batch_acquired(self, ctx, src: ProcessId, msg: BatchAcquired):
        batch = self.batches.get(msg.root)
        if batch is None:
            return
        if any(self.view.lookup_id(u) is None for u in msg.unknowns):
            return
        assignments = tuple(self.view.export(u) for u in sorted(msg.unknowns))
        msig = ctx.aggregate(batch.reductions.values())
        stragglers = tuple(sorted(batch.signatures.items()))
        ctx.send(src, Signatures(msg.root, assignments, msig, stragglers))

    def _on_witness_shard(self, ctx, src: ProcessId, msg: WitnessShard):
        batch = self.batches.get(msg.root)
        if batch is None or src.kind != ProcessKind.SERVER:
            return
        batch.commit_to.add(src.ordinal)
        if batch.phase is not Phase.WITNESSING:
            return
        if ctx.verify_aggregate([ctx.keycard(src)], stmt_witness(msg.root),
                                msg.shard):
            batch.witnesses[src.ordinal] = msg.shard

    # -- committing --------------------------------------------------------------

    def _on_commit_shard(self, ctx, src: ProcessId, msg: CommitShard):
        batch = self.batches.get(msg.root)
        if (batch is None or batch.phase is not Phase.COMMITTING
                or src.kind != ProcessKind.SERVER):
            return
        exceptions = frozenset(i for i, _ in msg.conflicts)
        if len(exceptions) != len(msg.conflicts):
            return
        if not ctx.verify_aggregate([ctx.keycard(src)],
                                    stmt_commit(msg.root, exceptions),
                                    msg.shard):
            return
        for ident, ep in msg.conflicts:
            if not self._valid_exception(ctx, batch, ident, ep):
                return  # one unproven exception rejects the whole shard
        for ident, _ in msg.conflicts:
            ctx.emit("exception_accepted", id=tuple(ident),
                     server=src.ordinal)
        batch.commits[src.ordinal] = (exceptions, msg.shard)

    def _valid_exception(self, ctx, batch: _Batch, ident: Id,
                         ep: EquivocationProof) -> bool:
        if ident not in batch.payloads:
            return False
        context, message = batch.payloads[ident]
        if not ctx.verify_plurality(ep.conflict_witness,
                                    stmt_witness(ep.conflict_root)):
            return False
        leaf = leaf_bytes(ident, context, ep.conflict_message)
        if not merkle_verify(ep.conflict_root, ep.proof, ep.proof.index, leaf):
            return False
        return message != ep.conflict_message

    # -- completion ---------------------------------------------------------------

    def _on_completion_shard(self, ctx, src: ProcessId, msg: CompletionShard):
        batch = self.batches.get(msg.root)
        if (batch is None or batch.phase is not Phase.COMPLETING
                or src.kind != ProcessKind.SERVER):
            return
        if ctx.verify_aggregate([ctx.keycard(src)],
                                stmt_completion(msg.root, batch.exclusions),
                                msg.shard):
            batch.completions[src.ordinal] = msg.shard

    # -- phase advancement ----------------------------------------------------------

    def _advance(self, ctx: Context, root: bytes):
        batch = self.batches.get(root)
        if batch is None:
            return
        if (batch.phase is Phase.WITNESSING
                and len(batch.witnesses) >= self.f + 1):
            witness = Witness(root, ctx.certify(batch.witnesses))
            for dst in self.servers:
                ctx.send(dst, witness)
            batch.phase = Phase.COMMITTING
            batch.commits = {}
        if (batch.phase is Phase.COMMITTING and batch.committable
                and len(batch.commits) >= 2 * self.f + 1):
            patches = self._commit_patches(ctx, batch)
            commit = Commit(root, patches)
            for ordinal in sorted(batch.commit_to):
                ctx.send(self.servers[ordinal], commit)
            batch.exclusions = exclusion_union(patches)
            batch.phase = Phase.COMPLETING
            batch.completions = {}
        if (batch.phase is Phase.COMPLETING
                and len(batch.completions) >= self.f + 1):
            certificate = ctx.certify(batch.completions)
            completion = Completion(root, certificate, batch.exclusions)
            for ident in batch.payloads:
                ctx.send(ctx.owner(self.view.lookup_id(ident)), completion)
            del self.batches[root]

    @staticmethod
    def _commit_patches(ctx: Context, batch: _Batch) -> tuple:
        """One certified patch per distinct exception set, in sorted order."""
        groups: dict[tuple, dict] = {}
        for ordinal in sorted(batch.commits):
            exceptions, shard = batch.commits[ordinal]
            groups.setdefault(tuple(sorted(exceptions)), {})[ordinal] = shard
        return tuple((ids, ctx.certify(shards))
                     for ids, shards in sorted(groups.items()))


# ---------------------------------------------------------------------------
# server

class BatchCheck:
    """A batch's sorted ids and Merkle root, or None unless its ids expand
    to one distinct id per payload.  One instance, shared by a simulation's
    servers, returns its last result again for the very same argument
    tuples: the result is a pure function of them, it holds them so their
    ids are not reused, and a decoded message is deeply immutable.  Other
    arguments, such as lists, are always recomputed."""

    last = (None, None, None)  # (ids, payloads, result); None is invalid

    def __call__(self, compressed_ids, payloads) -> tuple | None:
        if compressed_ids is self.last[0] and payloads is self.last[1]:
            return self.last[2]
        try:
            ids = tuple(expand_ids({d: set(ix) for d, ix in compressed_ids}))
        except (TypeError, ValueError):
            ids = ()
        result = None
        if ids and len(ids) == len(set(ids)) == len(payloads):
            result = ids, MerkleTree(_leaves(ids, payloads)).root()
        if type(compressed_ids) is tuple and type(payloads) is tuple:
            self.last = (compressed_ids, payloads, result)
        return result


@dataclass
class _StoredBatch:
    ids: tuple       # sorted, one per leaf
    payloads: tuple  # (context, message) of each id

    def index(self, ident: Id) -> int | None:
        """The leaf position of `ident`, or None if the batch lacks it."""
        k = bisect_left(self.ids, ident)
        return k if k < len(self.ids) and self.ids[k] == ident else None

    def prove(self, ident: Id):
        """The Merkle proof of `ident`'s leaf.  Only an equivocation proof
        needs one, so the tree is rebuilt here and not kept."""
        tree = MerkleTree(_leaves(self.ids, self.payloads))
        return tree.prove(self.index(ident))


class ServerMachine(Machine):
    def __init__(self, n_servers: int, f: int,
                 preloaded: tuple[Assignment, ...] = (),
                 check_batch: BatchCheck | None = None):
        self.servers = servers(n_servers)
        self.f = f
        self.preloaded = preloaded
        self.check_batch = check_batch or BatchCheck()
        self.view = DirectoryView()
        self.dir = ServerDirectory(n_servers, f)
        self.batches: dict[bytes, _StoredBatch] = {}
        self.witnesses: dict[bytes, object] = {}
        self.commits: dict[tuple, tuple] = {}    # (root, exclusions) -> patches
        self.messages: dict[tuple, tuple] = {}   # (id, context) -> (msg, root)
        self.delivered: set = set()              # (keycard, context)
        self.replies: dict[tuple, object] = {}   # (kind, src, root) -> message

    def on_start(self, ctx: Context):
        for a in self.preloaded:
            self.view.preload(a)
            ctx.emit("dir_import", id=tuple(a.ident), keycard=a.keycard.hex())

    # -- events -----------------------------------------------------------------

    def on_message(self, ctx: Context, src: ProcessId, msg):
        if self.dir.handle(ctx, src, msg):
            return
        if isinstance(msg, BatchMsg):
            response = self.handle_batch(ctx, msg.compressed_ids, msg.payloads)
            if response is not None:
                self._send_cached(ctx, src, ("ba", src, response.root), response)
        elif isinstance(msg, Signatures):
            response = self.handle_signatures(ctx, msg)
            if response is not None:
                self._send_cached(ctx, src, ("ws", src, msg.root), response)
        elif isinstance(msg, Witness):
            response = self.handle_witness(ctx, msg.root, msg.certificate)
            if response is not None:
                self._send_cached(ctx, src, ("cs", src, msg.root), response)
        elif isinstance(msg, Commit):
            response = self.handle_commit(ctx, msg.root, msg.patches)
            if response is not None:
                ctx.send(src, response)
        elif isinstance(msg, OfferTotality):
            if (msg.root, msg.exclusions) not in self.commits:
                ctx.send(src, AcceptTotality(msg.root, msg.exclusions))
        elif isinstance(msg, AcceptTotality):
            self._on_accept_totality(ctx, src, msg)
        elif isinstance(msg, Totality):
            for a in msg.assignments:
                self.view.import_assignment(ctx, a)
            self.handle_batch(ctx, msg.compressed_ids, msg.payloads)
            self.handle_commit(ctx, msg.root, msg.patches)

    def _send_cached(self, ctx, src, key, response):
        cached = self.replies.get(key)
        if cached is None:
            self.replies[key] = response
            cached = response
        ctx.send(src, cached)

    def on_timer(self, ctx: Context, tag: tuple):
        if tag[0] == "offer_totality":
            _, root, exclusions = tag
            offer = OfferTotality(root, frozenset(exclusions))
            for dst in self.servers:
                ctx.send(dst, offer)

    # -- batch acquisition --------------------------------------------------------

    def handle_batch(self, ctx: Context, compressed_ids,
                     payloads) -> BatchAcquired | None:
        checked = self.check_batch(compressed_ids, payloads)
        if checked is None:
            return None
        ids, root = checked
        unknowns = tuple(i for i in ids if self.view.lookup_id(i) is None)
        self.batches.setdefault(root, _StoredBatch(ids, tuple(payloads)))
        return BatchAcquired(root, unknowns)

    def _keycards(self, batch: _StoredBatch) -> list | None:
        """The keycard of each of the batch's ids, or None if one is
        unknown."""
        cards = [self.view.lookup_id(i) for i in batch.ids]
        return None if None in cards else cards

    # -- signature verification ----------------------------------------------------

    def handle_signatures(self, ctx: Context,
                          msg: Signatures) -> WitnessShard | None:
        for a in msg.assignments:
            self.view.import_assignment(ctx, a)
        batch = self.batches.get(msg.root)
        if batch is None:
            return None
        cards = self._keycards(batch)
        if cards is None:
            return None
        straggler_ids = set()
        for ident, signature in msg.stragglers:
            k = batch.index(ident)
            if k is None or ident in straggler_ids:
                return None
            context, message = batch.payloads[k]
            if not ctx.verify(cards[k], stmt_message(context, message),
                              signature):
                return None
            straggler_ids.add(ident)
        timely = [card for i, card in zip(batch.ids, cards)
                  if i not in straggler_ids]
        if not ctx.verify_aggregate(timely, stmt_reduction(msg.root),
                                    msg.msig):
            return None
        return WitnessShard(msg.root, ctx.multisign(stmt_witness(msg.root)))

    # -- witnessing and equivocation detection ----------------------------------------

    def handle_witness(self, ctx: Context, root: bytes,
                       certificate) -> CommitShard | None:
        batch = self.batches.get(root)
        if batch is None:
            return None
        if not ctx.verify_plurality(certificate, stmt_witness(root)):
            return None
        self.witnesses[root] = certificate
        conflicts = []
        for ident, (context, message) in zip(batch.ids, batch.payloads):
            prev = self.messages.get((ident, context))
            if prev is None:
                self.messages[(ident, context)] = (message, root)
            elif prev[0] != message:
                original_message, original_root = prev
                conflicts.append((ident, EquivocationProof(
                    original_root, self.witnesses[original_root],
                    self.batches[original_root].prove(ident),
                    original_message)))
                ctx.emit("exception", id=tuple(ident), root=root.hex())
        exceptions = frozenset(i for i, _ in conflicts)
        shard = ctx.multisign(stmt_commit(root, exceptions))
        return CommitShard(root, tuple(conflicts), shard)

    # -- commit and delivery ------------------------------------------------------------

    def handle_commit(self, ctx: Context, root: bytes,
                      patches) -> CompletionShard | None:
        batch = self.batches.get(root)
        if batch is None:
            return None
        cards = self._keycards(batch)
        if cards is None:
            return None
        signers: set = set()
        for exceptions, certificate in patches:
            if not ctx.verify_certificate(
                    certificate, stmt_commit(root, frozenset(exceptions)), 1):
                return None
            signers |= certificate.signers
        if len(signers) < 2 * self.f + 1:
            return None
        exclusions = exclusion_union(patches)
        self.commits[(root, exclusions)] = tuple(patches)
        for ident, keycard, (context, message) in zip(batch.ids, cards,
                                                      batch.payloads):
            if ident in exclusions:
                continue
            if (keycard, context) in self.delivered:
                continue
            self.delivered.add((keycard, context))
            ctx.emit("app_deliver", client=keycard.hex(),
                     context=context.hex(), message=message.hex())
        ctx.set_timer(("offer_totality", root, tuple(sorted(exclusions))),
                      OFFER_TOTALITY_TIMEOUT)
        return CompletionShard(root,
                               ctx.multisign(stmt_completion(root, exclusions)))

    # -- totality fallback -----------------------------------------------------------

    def _on_accept_totality(self, ctx, src: ProcessId, msg: AcceptTotality):
        key = (msg.root, msg.exclusions)
        batch = self.batches.get(msg.root)
        if batch is None or key not in self.commits:
            return
        assignments = tuple(self.view.export(i) for i in batch.ids)
        ctx.send(src, Totality(msg.root, assignments,
                               canonical_compressed(batch.ids),
                               tuple(batch.payloads), self.commits[key]))
