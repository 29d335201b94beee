"""Byzantine behaviors: drop-in replacements for correct state machines.

A behavior may emit arbitrary well-formed wire messages, but it reaches the
crypto oracle through the same per-process facade as a correct machine, so it
can only sign with its own key.  A behavior overrides only the step it
corrupts; the commit step has two such seams, `BrokerMachine._commit`, which
sends the commit certificate, and `ServerMachine._commit_shard`, which signs
a commit shard.  Each `BEHAVIORS` row types its spec keys as scenario
key-table kinds and bounds their values; scenario assembly reads every
fault-script entry through its row before it builds anything.
"""

from __future__ import annotations

from binascii import a2b_hex

from .crypto import Certificate, MerkleProof
from .procs import ProcessId, ProcessKind
from .protocol import BrokerMachine, ServerMachine
from .simnet import Context, Machine, Scenario
from .wire import (Commit, EquivocationProof, Inclusion, Reduction,
                   Submission, stmt_message, stmt_reduction, stmt_witness)


class SilentBroker(Machine):
    """Accepts nothing, sends nothing: clients must resubmit elsewhere."""


class CensoringBroker(BrokerMachine):
    """Runs the correct broker but drops submissions from target clients."""

    def __init__(self, censored):
        super().__init__()
        self.censored = {ProcessId(ProcessKind.CLIENT, o) for o in censored}

    def on_message(self, ctx, src, msg):
        if isinstance(msg, Submission) and src in self.censored:
            return
        super().on_message(ctx, src, msg)


class EquivocatingClient(Machine):
    """Signs two conflicting payloads for one context, one per broker.

    Responds to inclusion proofs from both brokers, so both batches reduce and
    both roots get witnessed; the second commit then carries a provable
    exception against this client.
    """

    def __init__(self, *, preloaded, context: bytes,
                 messages: tuple[bytes, bytes], **_client_kwargs):
        self.context = context
        self.messages = messages
        self.preloaded = preloaded

    def on_start(self, ctx: Context):
        for dst, message in zip(ctx.brokers, self.messages):
            signature = ctx.sign(stmt_message(self.context, message))
            ctx.send(dst, Submission(self.preloaded, self.context, message,
                                     signature))

    def on_message(self, ctx: Context, src, msg):
        if isinstance(msg, Inclusion):
            # blindly reduce whatever batch shows an inclusion for us
            ctx.send(src, Reduction(msg.root,
                                    ctx.multisign(stmt_reduction(msg.root))))


class FalseExceptionServer(ServerMachine):
    """Claims, without a valid proof, that a target client equivocated."""

    def __init__(self, *args, target_id, **kwargs):
        super().__init__(*args, **kwargs)
        self.target_id = target_id

    def _commit_shard(self, ctx, root, conflicts):
        if self.target_id in self.batches[root].ids:
            fake_root = bytes(32)
            conflicts = [*conflicts, (self.target_id, EquivocationProof(
                fake_root,
                Certificate(frozenset([ctx.pid.ordinal]),
                            ctx.multisign(stmt_witness(fake_root))),
                MerkleProof(0, ()), b"forged-conflict"))]
        return super()._commit_shard(ctx, root, conflicts)


class StallingServer(ServerMachine):
    """Correct until witnessed, then never commits or completes."""

    def _commit_shard(self, ctx, root, conflicts):
        return None

    def handle_commit(self, ctx, root, patches):
        return None


class LoneCommitBroker(BrokerMachine):
    """Sends the commit certificate to a single server and walks away.

    The lone receiver delivers, then drags every other server along through
    the totality exchange.
    """

    def _commit(self, ctx, root, batch, patches):
        ctx.send(ctx.servers[min(batch.commit_to)], Commit(root, patches))
        del self.batches[root]  # never completes: clients must resubmit


def _client_ordinals(censored: list, scenario: Scenario) -> list:
    if not all(0 <= j < scenario.n_clients for j in censored):
        raise ValueError(f"each must be < clients = {scenario.n_clients}")
    return censored


def _held_id(target_id: list, scenario: Scenario) -> tuple:
    """An id a client holds in the preloaded directory, which the scenario
    must have: live ids are assigned only during the run."""
    if not scenario.preload_directory:
        raise ValueError("needs preload_directory, as live ids are assigned "
                         "during the run")
    n = scenario.n_servers
    j = target_id[0] + n * target_id[-1] if target_id else -1  # its client
    if not 0 <= j < scenario.n_clients or [j % n, j // n] != target_id:
        raise ValueError(f"no client j < clients holds {target_id} as its "
                         "preloaded id [j % servers, j // servers]")
    return tuple(target_id)


def _two_messages(messages: list, _scenario) -> tuple:
    decoded = tuple(map(a2b_hex, messages))
    if len(decoded) != 2 or decoded[0] == decoded[1]:
        raise ValueError("must be two different hex strings, one per broker")
    return decoded


def _submits_alone(scenario: Scenario, plans: dict, pid: ProcessId):
    if scenario.n_brokers < 2:
        raise ValueError("brokers must be at least 2, one per message")
    if not scenario.preload_directory or pid.ordinal in plans:
        raise ValueError("submits its own messages under a preloaded id, "
                         "so needs preload_directory, no broadcasts entry")


# name -> (process kind, machine, {spec key: (key-table kind, bound(value,
# scenario) -> keyword argument)}, check(scenario, validated plans, pid) or
# None), where bounds and checks raise ValueError
BEHAVIORS = {
    "silent_broker": (ProcessKind.BROKER, SilentBroker, {}, None),
    "censoring_broker": (ProcessKind.BROKER, CensoringBroker,
                         {"censored": ([int], _client_ordinals)}, None),
    "lone_commit_broker": (ProcessKind.BROKER, LoneCommitBroker, {}, None),
    "equivocating_client": (ProcessKind.CLIENT, EquivocatingClient,
                            {"context": (str, lambda v, _: a2b_hex(v)),
                             "messages": ([str], _two_messages)},
                            _submits_alone),
    "false_exception_server": (ProcessKind.SERVER, FalseExceptionServer,
                               {"target_id": ([int], _held_id)}, None),
    "stalling_server": (ProcessKind.SERVER, StallingServer, {}, None),
}
