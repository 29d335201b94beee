"""Client, broker and server state machines for the batched broadcast.

A round, in the good case: clients hand signed (context, message) payloads to
a broker; the broker queues them per id, batches the oldest of each id,
builds a Merkle tree over the sorted (id, context, message) leaves, and shows
each client its inclusion proof; clients answer with a multi-signature over
the root, which replaces their individual signature.  The broker disseminates
the batch with compressed ids, supplies signatures and missing id assignments
on demand, gathers a plurality witness over the root, then a quorum of commit
shards whose exception sets must each be justified by an equivocation proof,
and finally a plurality of completion shards that let clients stop
resubmitting.  Servers deliver every non-excluded payload on commit, and offer
the batch to each other afterwards so no server is left behind.

Timer constants: Reduce = 2 ticks, Committable = 4, OfferTotality = 7, client
resubmission = 13; a broker batches at the tick a submission reaches its empty
queue, and again at once while submissions stay queued.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter, lt

from .crypto import MerkleTree, merkle_verify
from .directory import (DIRECTORY_MESSAGES, ClientSignup, DirectoryView,
                        ServerDirectory)
from .procs import Id, ProcessId, ProcessKind
from .simnet import Context, Machine
from .wire import (AcceptTotality, Assignment, AssignShard, BatchAcquired,
                   BatchMsg, Commit, CommitShard, Completion, CompletionShard,
                   EquivocationProof, Inclusion, OfferTotality, Ranked,
                   Reduction, Signatures, Submission, Totality, Witness,
                   WitnessShard, leaf_bytes, stmt_commit, stmt_completion,
                   stmt_message, stmt_reduction, stmt_witness)

REDUCE_TIMEOUT = 2
COMMITTABLE_TIMEOUT = 4
OFFER_TOTALITY_TIMEOUT = 7
RESUBMIT_BASE = 13


def compress_ids(ids) -> tuple:
    """Sorted duplicate-free (domain, index) ids -> ((domain, (index, ...)),
    ...), the form a batch message carries.  Its wire layout, `PARTITION`,
    is in `wire`."""
    return tuple((domain, tuple(index for _, index in group))
                 for domain, group in groupby(ids, itemgetter(0)))


def expand_ids(compressed) -> list:
    """The ids of a compressed form, in its order."""
    return [(domain, index) for domain, indices in compressed
            for index in indices]


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
    def __init__(self, plan=(), broker_order=None,
                 preloaded: Assignment | None = None):
        self.plan = list(plan)  # [(delay, context, message)]
        self.broker_order = list(broker_order) if broker_order else None
        self.assignment = preloaded  # this client's own, once it has one
        self.signup = (None if preloaded is not None
                       else ClientSignup(self._signed_up))
        self.submissions: dict[bytes, _Submission] = {}

    # -- lifecycle ------------------------------------------------------------

    def on_start(self, ctx: Context):
        a = self.assignment
        if a is not None:
            ctx.emit("dir_import", id=tuple(a.ident), keycard=a.keycard.hex())
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
        order = self.broker_order or range(len(ctx.brokers))
        target = next((b for b in order if b not in sub.submitted_to), None)
        if target is None:
            return
        ctx.send(ctx.brokers[target],
                 Submission(self.assignment, context, sub.message,
                            sub.signature))
        sub.submitted_to.add(target)
        ctx.set_timer(("submit", context), RESUBMIT_BASE)

    # -- events ---------------------------------------------------------------

    def on_timer(self, ctx: Context, tag: tuple):
        if tag[0] == "broadcast":
            _, context, message = self.plan[tag[1]]
            self.broadcast(ctx, context, message)
        elif tag[0] == "submit":
            self._submit(ctx, tag[1])

    def on_message(self, ctx: Context, src: ProcessId, msg):
        if isinstance(msg, Inclusion):
            self._on_inclusion(ctx, src, msg)
        elif isinstance(msg, Completion):
            self._on_completion(ctx, src, msg)
        elif isinstance(msg, (Ranked, AssignShard)):
            if self.signup is not None:  # a preloaded client ignores them
                self.signup.handle(ctx, src, msg)

    def _on_inclusion(self, ctx: Context, src: ProcessId, msg: Inclusion):
        sub = self.submissions.get(msg.context)
        if sub is None or msg.root in sub.included_in:
            return
        leaf = leaf_bytes(self.assignment.ident, msg.context, sub.message)
        if not merkle_verify(msg.root, msg.proof, leaf):
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
    senders: dict               # client -> Id, insertion = id order
    reductions: dict = field(default_factory=dict)  # Id -> multisignature
    phase: Phase = Phase.REDUCING
    commit_to: set = field(default_factory=set)      # server ordinals
    committable: bool = False
    witnesses: dict = field(default_factory=dict)    # ordinal -> msig
    commits: dict = field(default_factory=dict)      # ordinal -> (ids, msig)
    exclusions: frozenset = frozenset()
    completions: dict = field(default_factory=dict)  # ordinal -> msig


class BrokerMachine(Machine):
    def __init__(self):
        self.view = DirectoryView()
        # Id -> deque of Submission, oldest first; a flush timer is
        # outstanding exactly when some id has one
        self.pending: dict[Id, deque] = {}
        self.batches: dict[bytes, _Batch] = {}

    # -- events ---------------------------------------------------------------

    def on_message(self, ctx: Context, src: ProcessId, msg):
        if isinstance(msg, Submission):
            self._on_submission(ctx, src, msg)
        elif isinstance(msg, Reduction):
            self._on_reduction(ctx, src, msg)
        elif isinstance(msg, BatchAcquired):
            self._on_batch_acquired(ctx, src, msg)
        elif isinstance(msg, (WitnessShard, CompletionShard)):
            self._on_shard(ctx, src, msg)
        elif isinstance(msg, CommitShard):
            self._on_commit_shard(ctx, src, msg)

    def on_timer(self, ctx: Context, tag: tuple):
        if tag[0] == "flush":
            self._flush(ctx)
        elif tag[0] == "reduce":
            self._reduce(ctx, tag[1])
        elif tag[0] == "committable":
            batch = self.batches.get(tag[1])
            if batch is not None:
                batch.committable = True
                self._advance(ctx, tag[1])

    # -- batching -------------------------------------------------------------

    def _on_submission(self, ctx: Context, src: ProcessId, msg: Submission):
        if not self.view.import_assignment(ctx, msg.assignment):
            return
        ident = msg.assignment.ident
        if not ctx.verify(msg.assignment.keycard,
                          stmt_message(msg.context, msg.message),
                          msg.signature):
            return
        if not self.pending:
            ctx.set_timer(("flush",), 0)
        self.pending.setdefault(ident, deque()).append(msg)

    def _flush(self, ctx: Context):
        """Batch the oldest pending submission of each id."""
        if not self.pending:
            return  # a ring with nothing pending
        ids = sorted(self.pending)
        submissions = [self.pending[i].popleft() for i in ids]
        self.pending = {i: q for i, q in self.pending.items() if q}
        payloads = {i: (s.context, s.message)
                    for i, s in zip(ids, submissions)}
        tree = MerkleTree(_leaves(ids, payloads.values()))
        root = tree.root()
        senders = {}
        for pos, (ident, sub) in enumerate(zip(ids, submissions)):
            sender = ctx.owner(sub.assignment.keycard)
            senders[sender] = ident
            ctx.send(sender, Inclusion(sub.context, root, tree.prove(pos)))
        self.batches[root] = _Batch(
            payloads, {i: s.signature for i, s in zip(ids, submissions)},
            senders)
        ctx.set_timer(("reduce", root), REDUCE_TIMEOUT)
        if self.pending:
            ctx.set_timer(("flush",), 0)

    # -- reduction -------------------------------------------------------------

    def _on_reduction(self, ctx: Context, src: ProcessId, msg: Reduction):
        batch = self.batches.get(msg.root)
        if batch is None or batch.phase is not Phase.REDUCING:
            return
        ident = batch.senders.get(src)
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
        ctx.send_all(ctx.servers,
                     BatchMsg(compress_ids(batch.payloads),
                              tuple(batch.payloads.values())))
        batch.phase = Phase.WITNESSING
        ctx.set_timer(("committable", root), COMMITTABLE_TIMEOUT)

    # -- witnessing and completion ---------------------------------------------

    def _on_batch_acquired(self, ctx, src: ProcessId, msg: BatchAcquired):
        batch = self.batches.get(msg.root)
        if batch is None or src.kind != ProcessKind.SERVER:
            return
        if any(self.view.lookup_id(u) is None for u in msg.unknowns):
            return
        assignments = tuple(self.view.export(u) for u in sorted(msg.unknowns))
        msig = ctx.aggregate(batch.reductions.values())
        stragglers = tuple(sorted(batch.signatures.items()))
        ctx.send(src, Signatures(msg.root, assignments, msig, stragglers))

    def _on_shard(self, ctx, src: ProcessId, msg):
        """A server's aggregate over the statement of the batch's phase:
        witness or completion.  A witness shard's sender gets the commit."""
        batch = self.batches.get(msg.root)
        if batch is None or src.kind != ProcessKind.SERVER:
            return
        if isinstance(msg, WitnessShard):
            batch.commit_to.add(src.ordinal)
            phase, shards = Phase.WITNESSING, batch.witnesses
        else:
            phase, shards = Phase.COMPLETING, batch.completions
        if batch.phase is not phase:
            return
        statement = (stmt_witness(msg.root) if phase is Phase.WITNESSING
                     else stmt_completion(msg.root, batch.exclusions))
        if ctx.verify_aggregate([ctx.keycard(src)], statement, msg.shard):
            shards[src.ordinal] = msg.shard
            self._advance(ctx, msg.root)

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
        self._advance(ctx, msg.root)

    def _valid_exception(self, ctx, batch: _Batch, ident: Id,
                         ep: EquivocationProof) -> bool:
        if ident not in batch.payloads:
            return False
        context, message = batch.payloads[ident]
        if not ctx.verify_plurality(ep.conflict_witness,
                                    stmt_witness(ep.conflict_root)):
            return False
        leaf = leaf_bytes(ident, context, ep.conflict_message)
        if not merkle_verify(ep.conflict_root, ep.proof, leaf):
            return False
        return message != ep.conflict_message

    # -- phase advancement ----------------------------------------------------------

    def _advance(self, ctx: Context, root: bytes):
        """Move the live batch `root` through every phase its state allows:
        only an accepted shard or the committable timer changes that."""
        batch = self.batches[root]
        if (batch.phase is Phase.WITNESSING
                and len(batch.witnesses) >= ctx.plurality):
            ctx.send_all(ctx.servers,
                         Witness(root, ctx.certify(batch.witnesses)))
            batch.phase = Phase.COMMITTING
        if (batch.phase is Phase.COMMITTING and batch.committable
                and len(batch.commits) >= ctx.quorum):
            self._commit(ctx, root, batch, self._commit_patches(ctx, batch))
        if (batch.phase is Phase.COMPLETING
                and len(batch.completions) >= ctx.plurality):
            certificate = ctx.certify(batch.completions)
            ctx.send_all(list(batch.senders),
                         Completion(root, certificate, batch.exclusions))
            del self.batches[root]

    def _commit(self, ctx: Context, root: bytes, batch: _Batch, patches):
        """Send `patches` to each witness shard's sender; await completion."""
        ctx.send_all([ctx.servers[o] for o in sorted(batch.commit_to)],
                     Commit(root, patches))
        batch.exclusions = exclusion_union(patches)
        batch.phase = Phase.COMPLETING

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

def checked_batch(compressed_ids, payloads) -> tuple | None:
    """A batch's sorted ids and Merkle root, or None unless its ids expand
    to one id per payload in strictly ascending order.  A pure function of
    its arguments, so the servers of one simulation share its result
    through `Context.shared`."""
    try:
        ids = tuple(expand_ids(compressed_ids))
        ascending = all(map(lt, ids, ids[1:]))
    except (TypeError, ValueError):
        return None
    if not ids or not ascending or len(ids) != len(payloads):
        return None
    return ids, MerkleTree(_leaves(ids, payloads)).root()


@dataclass
class _StoredBatch:
    ids: tuple       # sorted, one per leaf
    payloads: tuple  # (context, message) of each id
    # each id's keycard once all are known: correct servers sign each id
    # once, so a certified directory entry is never rewritten
    cards: list | None = None
    witness: object = None  # the verified witness certificate
    commits: dict = field(default_factory=dict)  # exclusions -> patches

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
    def __init__(self, preloaded: tuple[Assignment, ...] = ()):
        self.preloaded = preloaded
        self.view = DirectoryView()
        self.dir = ServerDirectory()
        self.batches: dict[bytes, _StoredBatch] = {}
        self.messages: dict[tuple, tuple] = {}   # (id, context) -> (msg, root)
        self.delivered: set = set()              # (keycard, context)
        self.replies: dict[tuple, object] = {}   # (kind, src, root) -> message

    def on_start(self, ctx: Context):
        for a in self.preloaded:
            self.view.preload(a)
        ctx.emit_rows("dir_import",
                      id=[tuple(a.ident) for a in self.preloaded],
                      keycard=[a.keycard.hex() for a in self.preloaded])

    # -- events -----------------------------------------------------------------

    def on_message(self, ctx: Context, src: ProcessId, msg):
        if isinstance(msg, DIRECTORY_MESSAGES):
            self.dir.handle(ctx, src, msg)
        elif isinstance(msg, BatchMsg):
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
        elif src.kind != ProcessKind.SERVER:
            return  # the totality exchange runs between servers only
        elif isinstance(msg, OfferTotality):
            batch = self.batches.get(msg.root)
            if batch is None or msg.exclusions not in batch.commits:
                ctx.send(src, AcceptTotality(msg.root, msg.exclusions))
        elif isinstance(msg, AcceptTotality):
            self._on_accept_totality(ctx, src, msg)
        elif isinstance(msg, Totality):
            for a in msg.assignments:
                self.view.import_assignment(ctx, a)
            self.handle_batch(ctx, msg.compressed_ids, msg.payloads)
            self.handle_commit(ctx, msg.root, msg.patches)

    def _send_cached(self, ctx, src, key, response):
        ctx.send(src, self.replies.setdefault(key, response))

    def on_timer(self, ctx: Context, tag: tuple):
        if tag[0] == "offer_totality":
            _, root, exclusions = tag
            ctx.send_all(ctx.servers,
                         OfferTotality(root, frozenset(exclusions)))

    # -- batch acquisition --------------------------------------------------------

    def handle_batch(self, ctx: Context, compressed_ids,
                     payloads) -> BatchAcquired | None:
        payloads = tuple(payloads)
        checked = ctx.shared(checked_batch, tuple(compressed_ids), payloads)
        if checked is None:
            return None
        ids, root = checked
        batch = self.batches.setdefault(root, _StoredBatch(ids, payloads))
        unknowns = () if self._keycards(batch) is not None else tuple(
            i for i in ids if self.view.lookup_id(i) is None)
        return BatchAcquired(root, unknowns)

    def _keycards(self, batch: _StoredBatch) -> list | None:
        """The keycard of each of the batch's ids, or None if one is
        unknown."""
        if batch.cards is None:
            cards = [self.view.lookup_id(i) for i in batch.ids]
            if None in cards:
                return None
            batch.cards = cards
        return batch.cards

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
        batch.witness = certificate
        conflicts = []
        for ident, (context, message) in zip(batch.ids, batch.payloads):
            prev = self.messages.get((ident, context))
            if prev is None:
                self.messages[(ident, context)] = (message, root)
            elif prev[0] != message:
                original_message, original_root = prev
                original = self.batches[original_root]
                conflicts.append((ident, EquivocationProof(
                    original_root, original.witness, original.prove(ident),
                    original_message)))
                ctx.emit("exception", id=tuple(ident), root=root.hex())
        return self._commit_shard(ctx, root, conflicts)

    def _commit_shard(self, ctx: Context, root: bytes,
                      conflicts: list) -> CommitShard:
        """Sign `root` with the exceptions that `conflicts` prove."""
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
        if len(signers) < ctx.quorum:
            return None
        exclusions = exclusion_union(patches)
        batch.commits[exclusions] = tuple(patches)
        clients, contexts, messages = [], [], []
        for ident, keycard, (context, message) in zip(batch.ids, cards,
                                                      batch.payloads):
            if ident in exclusions:
                continue
            if (keycard, context) in self.delivered:
                continue
            self.delivered.add((keycard, context))
            clients.append(keycard.hex())
            contexts.append(context.hex())
            messages.append(message.hex())
        if clients:
            ctx.emit_rows("app_deliver", client=clients, context=contexts,
                          message=messages)
        ctx.set_timer(("offer_totality", root, tuple(sorted(exclusions))),
                      OFFER_TOTALITY_TIMEOUT)
        return CompletionShard(root,
                               ctx.multisign(stmt_completion(root, exclusions)))

    # -- totality fallback -----------------------------------------------------------

    def _on_accept_totality(self, ctx, src: ProcessId, msg: AcceptTotality):
        batch = self.batches.get(msg.root)
        if batch is None or msg.exclusions not in batch.commits:
            return
        assignments = tuple(self.view.export(i) for i in batch.ids)
        ctx.send(src, Totality(msg.root, assignments,
                               compress_ids(batch.ids), batch.payloads,
                               batch.commits[msg.exclusions]))
