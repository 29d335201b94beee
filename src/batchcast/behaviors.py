"""Byzantine behaviors: drop-in replacements for correct state machines.

A behavior may emit arbitrary well-formed wire messages, but it reaches the
crypto oracle through the same per-process facade as a correct machine, so it
can only sign with its own key.
"""

from __future__ import annotations

from .crypto import Certificate, MerkleProof
from .procs import ProcessId, ProcessKind, broker, server
from .protocol import BrokerMachine, Phase, ServerMachine
from .simnet import Context, Machine
from .wire import (Commit, CommitShard, EquivocationProof, Inclusion,
                   Reduction, Submission, stmt_commit, stmt_message,
                   stmt_reduction, stmt_witness)


class SilentBroker(Machine):
    """Accepts nothing, sends nothing: clients must resubmit elsewhere."""


class CensoringBroker(BrokerMachine):
    """Runs the correct broker but drops submissions from target clients."""

    def __init__(self, *args, censored=(), **kwargs):
        super().__init__(*args, **kwargs)
        self.censored = {ProcessId(ProcessKind.CLIENT, o) for o in censored}

    def on_message(self, ctx, src, msg):
        if isinstance(msg, Submission) and src in self.censored:
            self._pump(ctx)
            return
        super().on_message(ctx, src, msg)


class EquivocatingClient(Machine):
    """Signs two conflicting payloads for one context, one per broker.

    Responds to inclusion proofs from both brokers, so both batches reduce and
    both roots get witnessed; the second commit then carries a provable
    exception against this client.
    """

    def __init__(self, context: bytes, messages: tuple[bytes, bytes],
                 preloaded):
        self.context = context
        self.messages = messages
        self.preloaded = preloaded

    def on_start(self, ctx: Context):
        for i, message in enumerate(self.messages):
            signature = ctx.sign(stmt_message(self.context, message))
            ctx.send(broker(i), Submission(self.preloaded, self.context,
                                           message, signature))

    def on_message(self, ctx: Context, src, msg):
        if isinstance(msg, Inclusion):
            # blindly reduce whatever batch shows an inclusion for us
            ctx.send(src, Reduction(msg.root,
                                    ctx.multisign(stmt_reduction(msg.root))))


class FalseExceptionServer(ServerMachine):
    """Claims, without a valid proof, that a target client equivocated."""

    def __init__(self, *args, target_id=(0, 0), **kwargs):
        super().__init__(*args, **kwargs)
        self.target_id = tuple(target_id)

    def handle_witness(self, ctx, root, certificate):
        shard = super().handle_witness(ctx, root, certificate)
        if shard is None:
            return None
        batch = self.batches[root]
        if self.target_id not in batch.ids:
            return shard
        fake_root = bytes(32)
        fake = EquivocationProof(
            fake_root,
            Certificate(frozenset([ctx.pid.ordinal]),
                        ctx.multisign(stmt_witness(fake_root))),
            MerkleProof(0, ()),
            b"forged-conflict")
        conflicts = tuple(list(shard.conflicts) + [(self.target_id, fake)])
        exceptions = frozenset(i for i, _ in conflicts)
        return CommitShard(root, conflicts,
                           ctx.multisign(stmt_commit(root, exceptions)))


class StallingServer(ServerMachine):
    """Correct until witnessed, then never commits or completes."""

    def handle_witness(self, ctx, root, certificate):
        super().handle_witness(ctx, root, certificate)
        return None

    def handle_commit(self, ctx, root, patches):
        return None


class LoneCommitBroker(BrokerMachine):
    """Sends the commit certificate to a single server and walks away.

    The lone receiver delivers, then drags every other server along through
    the totality exchange.
    """

    def _advance(self, ctx, root):
        batch = self.batches.get(root)
        if batch is None:
            return
        if (batch.phase is Phase.COMMITTING and batch.committable
                and len(batch.commits) >= 2 * self.f + 1):
            target = min(batch.commit_to)
            ctx.send(server(target),
                     Commit(root, self._commit_patches(ctx, batch)))
            del self.batches[root]  # never completes: clients must resubmit
            return
        super()._advance(ctx, root)


def build(spec: dict, **kwargs) -> Machine:
    kind = spec["behavior"]
    if kind == "silent_broker":
        return SilentBroker()
    if kind == "censoring_broker":
        return CensoringBroker(kwargs["n_servers"], kwargs["f"],
                               kwargs["batching_window"],
                               censored=spec.get("censored", ()))
    if kind == "equivocating_client":
        return EquivocatingClient(bytes.fromhex(spec["context"]),
                                  (bytes.fromhex(spec["messages"][0]),
                                   bytes.fromhex(spec["messages"][1])),
                                  kwargs["preloaded"])
    if kind == "false_exception_server":
        return FalseExceptionServer(kwargs["n_servers"], kwargs["f"],
                                    kwargs["preloaded_all"],
                                    target_id=tuple(spec["target_id"]))
    if kind == "stalling_server":
        return StallingServer(kwargs["n_servers"], kwargs["f"],
                              kwargs["preloaded_all"])
    if kind == "lone_commit_broker":
        return LoneCommitBroker(kwargs["n_servers"], kwargs["f"],
                                kwargs["batching_window"])
    raise ValueError(f"unknown behavior {kind!r}")
