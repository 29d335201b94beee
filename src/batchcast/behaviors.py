"""Byzantine behaviors: drop-in replacements for correct state machines.

A behavior may emit arbitrary well-formed wire messages, but it reaches the
crypto oracle through the same per-process facade as a correct machine, so it
can only sign with its own key.  Each is built with the arguments of the
correct machine of its process kind, by keyword, plus its spec keys as
keywords, each decoded from its JSON value and checked against the scenario's
counts.
"""

from __future__ import annotations

from itertools import cycle
from operator import index

from .crypto import Certificate, MerkleProof
from .procs import ProcessId, ProcessKind, brokers, server
from .protocol import BrokerMachine, Phase, ServerMachine
from .simnet import Context, Machine, Scenario
from .wire import (Commit, CommitShard, EquivocationProof, Inclusion,
                   Reduction, Submission, stmt_commit, stmt_message,
                   stmt_reduction, stmt_witness)


class SilentBroker(Machine):
    """Accepts nothing, sends nothing: clients must resubmit elsewhere."""

    def __init__(self, *_broker_args, **_broker_kwargs):
        pass


class CensoringBroker(BrokerMachine):
    """Runs the correct broker but drops submissions from target clients."""

    def __init__(self, *args, censored, **kwargs):
        super().__init__(*args, **kwargs)
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

    def __init__(self, *, n_brokers: int, preloaded, plan, context: bytes,
                 messages: tuple[bytes, bytes], **_client_kwargs):
        if len(messages) > n_brokers:
            raise ValueError(f"sends its {len(messages)} messages to one "
                             "broker each, so brokers must be at least "
                             f"{len(messages)}")
        if preloaded is None or plan:
            raise ValueError("submits its own messages under a preloaded id, "
                             "so needs preload_directory, no broadcasts entry")
        self.context = context
        self.messages = messages
        self.preloaded = preloaded

    def on_start(self, ctx: Context):
        for dst, message in zip(brokers(len(self.messages)), self.messages):
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


def _list(decode, count=None):
    """A decoder of a JSON list of `count` (any number if None) items."""
    def decode_list(value, _scenario) -> tuple:
        if type(value) is not list or count not in (None, len(value)):
            raise ValueError(f"must be a list of {count or 'any number of'} "
                             "items")
        return tuple(map(decode, value))
    return decode_list


def _target_id(value, scenario) -> tuple:
    """An id in range that a client holds in the preloaded directory, which
    the scenario must have: live ids are assigned only during the run."""
    if not scenario.preload_directory:
        raise ValueError("needs preload_directory, as live ids are assigned "
                         "during the run")
    domain, index = _ordinals("n_servers", "n_clients")(value, scenario)
    if domain + scenario.n_servers * index >= scenario.n_clients:
        raise ValueError(f"no client has the preloaded id {[domain, index]}: "
                         "domain + servers * index must be < clients")
    return domain, index


def _ordinals(*bounds):
    """A decoder of a JSON list of integers, each below the scenario count
    its bound names: with one bound any number of items, with more one item
    per bound, in order."""
    items = _list(index, None if len(bounds) == 1 else len(bounds))

    def decode_ordinals(value, scenario) -> tuple:
        decoded = items(value, scenario)
        for item, bound in zip(decoded, cycle(bounds)):
            count = getattr(scenario, bound)
            if not 0 <= item < count:
                raise ValueError(f"{item} is not in [0, {bound[2:]} = "
                                 f"{count})")
        return decoded
    return decode_ordinals


# behavior name -> (process kind, class, spec key -> decoder(value, scenario))
_BEHAVIORS = {
    "silent_broker": (ProcessKind.BROKER, SilentBroker, {}),
    "censoring_broker": (ProcessKind.BROKER, CensoringBroker,
                         {"censored": _ordinals("n_clients")}),
    "lone_commit_broker": (ProcessKind.BROKER, LoneCommitBroker, {}),
    "equivocating_client": (ProcessKind.CLIENT, EquivocatingClient,
                            {"context": lambda v, _: bytes.fromhex(v),
                             "messages": _list(bytes.fromhex, 2)}),
    "false_exception_server": (ProcessKind.SERVER, FalseExceptionServer,
                               {"target_id": _target_id}),
    "stalling_server": (ProcessKind.SERVER, StallingServer, {}),
}


def build(pid: ProcessId, spec: dict, machine_kwargs: dict,
          scenario: Scenario) -> Machine:
    """The machine fault-script entry `spec` of `scenario` makes of `pid`,
    built on the keyword arguments of its correct machine; raises ValueError
    naming the label, and the key if a value is malformed or names no process
    or id."""
    where, name = f"fault_script.{pid.label}", spec.get("behavior")
    kind, cls, decoders = _BEHAVIORS.get(str(name), (None, None, {}))
    if kind is not pid.kind or spec.keys() - {"behavior"} != decoders.keys():
        raise ValueError(f"{where}: no {pid.kind.name.lower()} behavior "
                         f"{name!r} takes the keys {sorted(spec)}")
    kwargs = {}
    for key, decode in decoders.items():
        try:
            kwargs[key] = decode(spec[key], scenario)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}.{key}: {exc}") from None
    try:
        return cls(**machine_kwargs, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
