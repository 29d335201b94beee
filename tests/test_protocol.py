"""Client/broker/server state machine behavior, unit and end-to-end."""

import gc
import random
from collections import deque

import pytest

from batchcast.behaviors import CensoringBroker
from batchcast.crypto import MerkleTree, Oracle
from batchcast.directory import DirectoryView
from batchcast.procs import broker, client, server
from batchcast.protocol import (BrokerMachine, ClientMachine, Phase,
                                ServerMachine, checked_batch, compress_ids)
from batchcast.scenarios import (CORPUS, batching_limit, good_case,
                                 preloaded_directory, run_scenario,
                                 silent_broker)
from batchcast.simnet import ADVERSARIAL, DelayPolicy, Scenario
from batchcast.wire import (AcceptTotality, BatchAcquired, BatchMsg, Commit,
                            CommitShard, Completion, CompletionShard,
                            Inclusion, OfferTotality, Reduction, Signatures,
                            Submission, Totality, Witness, WitnessShard,
                            leaf_bytes, stmt_commit, stmt_completion,
                            stmt_message, stmt_reduction, stmt_witness)

from assignment_reference import dense_id
from conftest import FakeCtx


def preloaded_scenario(n_clients=8):
    return good_case(n_clients=n_clients)


def make_submission(oracle, scenario, ordinal, context, message):
    a = preloaded_directory(oracle, scenario)[ordinal]
    sig = oracle.sign(client(ordinal), stmt_message(context, message))
    return Submission(a, context, message, sig)


def verify_rows(ctx, verb):
    """The `verify` rows of `verb` in the trace of `ctx`'s simulation."""
    return sum(e.kind == "verify" and e.tag == verb for e in ctx.sim.trace)


def drive_broker_to_batch(oracle, ctx, submissions):
    """Feed submissions to a fresh broker, ring the one flush timer they
    set, and return the broker with the root and batch the flush stored."""
    machine = BrokerMachine()
    for sub in submissions:
        machine._on_submission(ctx, client(0), sub)
    assert ctx.timers == [(("flush",), 0)]
    machine.on_timer(ctx, ("flush",))
    (root, batch), = machine.batches.items()
    assert ctx.timers[1] == (("reduce", root), 2)
    return machine, root, batch


def ring_flush(machine, ctx):
    """Ring a flush timer; return the batch it stores, or None."""
    timers = len(ctx.timers)
    machine.on_timer(ctx, ("flush",))
    stored = [tag[1] for tag, _ in ctx.timers[timers:] if tag[0] == "reduce"]
    return machine.batches[stored[0]] if stored else None


# -- client --------------------------------------------------------------------


def test_client_one_broker_contacted_in_good_case():
    sim = run_scenario(good_case(n_clients=4))
    for j in range(4):
        sends = [e for e in sim.trace
                 if e.kind == "send" and e.src == f"C{j}"
                 and e.tag == "Submission"]
        assert len(sends) == 1


def test_client_rejects_second_broadcast_same_context(oracle,
                                                      fake_ctx_factory):
    sc = preloaded_scenario()
    m = ClientMachine(preloaded=preloaded_directory(oracle, sc)[0])
    ctx = fake_ctx_factory(client(0), n_brokers=2)
    m.on_start(ctx)
    m.broadcast(ctx, b"ctx1", b"m1")
    m.broadcast(ctx, b"ctx1", b"m2")
    subs = [msg for _, msg in ctx.sent if isinstance(msg, Submission)]
    assert len(subs) == 1 and subs[0].message == b"m1"


def test_client_resubmits_after_silent_broker():
    sim = run_scenario(silent_broker(n_clients=2), seed=1)
    for j in range(2):
        targets = [e.dst for e in sim.trace
                   if e.kind == "send" and e.src == f"C{j}"
                   and e.tag == "Submission"]
        assert targets[0] == "B0" and "B1" in targets
    delivered = {e.extra["context"] for e in sim.trace
                 if e.kind == "app_deliver"}
    assert len(delivered) == 2


def test_client_duplicate_inclusion_is_idempotent(oracle, fake_ctx_factory):
    sc = preloaded_scenario()
    a = preloaded_directory(oracle, sc)[0]
    m = ClientMachine(preloaded=a)
    ctx = fake_ctx_factory(client(0))
    m.on_start(ctx)
    m.broadcast(ctx, b"ctx", b"msg")
    tree = MerkleTree([leaf_bytes(a.ident, b"ctx", b"msg")])
    inc = Inclusion(b"ctx", tree.root(), tree.prove(0))
    m.on_message(ctx, broker(0), inc)
    m.on_message(ctx, broker(0), inc)
    reductions = [msg for _, msg in ctx.sent if isinstance(msg, Reduction)]
    assert len(reductions) == 1


def test_client_ignores_substituted_leaf(oracle, fake_ctx_factory):
    sc = preloaded_scenario()
    a = preloaded_directory(oracle, sc)[0]
    m = ClientMachine(preloaded=a)
    ctx = fake_ctx_factory(client(0))
    m.on_start(ctx)
    m.broadcast(ctx, b"ctx", b"msg")
    tree = MerkleTree([leaf_bytes(a.ident, b"ctx", b"spurious")])
    m.on_message(ctx, broker(0), Inclusion(b"ctx", tree.root(),
                                           tree.prove(0)))
    assert not [msg for _, msg in ctx.sent if isinstance(msg, Reduction)]


def test_client_keeps_resubmitting_when_excluded(oracle, fake_ctx_factory):
    sc = preloaded_scenario()
    a = preloaded_directory(oracle, sc)[0]
    m = ClientMachine(preloaded=a)
    ctx = fake_ctx_factory(client(0), n_brokers=2)
    m.on_start(ctx)
    m.broadcast(ctx, b"ctx", b"msg")
    tree = MerkleTree([leaf_bytes(a.ident, b"ctx", b"msg")])
    root = tree.root()
    m.on_message(ctx, broker(0), Inclusion(b"ctx", root, tree.prove(0)))
    exclusions = frozenset({a.ident})
    shards = {o: oracle.multisign(server(o), stmt_completion(root, exclusions))
              for o in range(2)}
    m.on_message(ctx, broker(0),
                 Completion(root, oracle.certify(shards), exclusions))
    assert b"ctx" in m.submissions  # still live: the client was excluded
    good = {o: oracle.multisign(server(o), stmt_completion(root, frozenset()))
            for o in range(2)}
    m.on_message(ctx, broker(0),
                 Completion(root, oracle.certify(good), frozenset()))
    assert b"ctx" not in m.submissions


def test_client_rejects_forged_completion(oracle, fake_ctx_factory):
    sc = preloaded_scenario()
    a = preloaded_directory(oracle, sc)[0]
    m = ClientMachine(preloaded=a)
    ctx = fake_ctx_factory(client(0))
    m.on_start(ctx)
    m.broadcast(ctx, b"ctx", b"msg")
    tree = MerkleTree([leaf_bytes(a.ident, b"ctx", b"msg")])
    root = tree.root()
    m.on_message(ctx, broker(0), Inclusion(b"ctx", root, tree.prove(0)))
    forged = {o: oracle.multisign(server(o), b"something else")
              for o in range(2)}
    m.on_message(ctx, broker(0),
                 Completion(root, oracle.certify(forged), frozenset()))
    assert b"ctx" in m.submissions


# -- broker --------------------------------------------------------------------


def test_broker_second_submission_same_id_waits(oracle, fake_ctx_factory):
    sc = preloaded_scenario()
    ctx = fake_ctx_factory(broker(0))
    s1 = make_submission(oracle, sc, 0, b"c1", b"m1")
    s2 = make_submission(oracle, sc, 0, b"c2", b"m2")
    machine, root, batch = drive_broker_to_batch(oracle, ctx, [s1, s2])
    assert batch.payloads == {(0, 0): (b"c1", b"m1")}
    # the queued submission re-arms the flush timer after the reduce timer
    assert ctx.timers[1:] == [(("reduce", root), 2), (("flush",), 0)]
    assert ring_flush(machine, ctx).payloads == {(0, 0): (b"c2", b"m2")}
    assert not machine.pending and ctx.timers[-1][0][0] == "reduce"


def test_broker_submission_for_pooled_id_waits_for_flush(oracle,
                                                         fake_ctx_factory):
    sc = preloaded_scenario()
    ctx = fake_ctx_factory(broker(0))
    machine = BrokerMachine()
    machine._on_submission(ctx, client(0),
                           make_submission(oracle, sc, 0, b"c1", b"m1"))
    assert ctx.timers == [(("flush",), 0)]
    machine._on_submission(ctx, client(0),
                           make_submission(oracle, sc, 0, b"c2", b"m2"))
    assert ctx.timers == [(("flush",), 0)]  # one timer covers both
    assert [s.context for s in machine.pending[(0, 0)]] == [b"c1", b"c2"]
    assert ring_flush(machine, ctx).payloads == {(0, 0): (b"c1", b"m1")}
    assert ctx.timers[-1] == (("flush",), 0)
    assert ring_flush(machine, ctx).payloads == {(0, 0): (b"c2", b"m2")}
    assert (0, 0) not in machine.pending  # a drained queue is dropped
    assert ring_flush(machine, ctx) is None  # nothing left to batch


def test_broker_pools_each_id_once_in_any_order(oracle, fake_ctx_factory):
    sc = preloaded_scenario()
    ctx = fake_ctx_factory(broker(0))
    machine = BrokerMachine()
    order = [5, 2, 7, 0, 2, 3, 5, 1, 6, 4]  # ordinals 2 and 5 submit twice
    for k, j in enumerate(order):
        machine._on_submission(ctx, client(j), make_submission(
            oracle, sc, j, b"c%d" % k, b"m"))
    first = {}
    for k, j in enumerate(order):
        first.setdefault(dense_id(j, 4), b"c%d" % k)
    batch = ring_flush(machine, ctx)
    assert list(batch.payloads) == sorted(first)
    assert {i: c for i, (c, _) in batch.payloads.items()} == first
    assert set(machine.pending) == {dense_id(2, 4), dense_id(5, 4)}
    second = ring_flush(machine, ctx)
    assert {i: c for i, (c, _) in second.payloads.items()} == {
        dense_id(2, 4): b"c4", dense_id(5, 4): b"c6"}


def test_censoring_broker_pools_uncensored_ids(oracle, fake_ctx_factory):
    sc = preloaded_scenario()
    ctx = fake_ctx_factory(broker(0))
    machine = CensoringBroker(censored=[1])
    for j in range(4):
        machine.on_message(ctx, client(j),
                           make_submission(oracle, sc, j, b"c", b"m"))
    assert ctx.timers == [(("flush",), 0)]
    assert list(ring_flush(machine, ctx).payloads) == sorted(
        dense_id(j, 4) for j in (0, 2, 3))


def test_broker_batches_512_ids_in_one_flush():
    n = 512
    sc = preloaded_scenario(n_clients=n)
    oracle = Oracle(sc.processes())
    ctx = FakeCtx(oracle, broker(0))
    machine = BrokerMachine()
    for j in reversed(range(n)):
        machine._on_submission(ctx, client(j),
                               make_submission(oracle, sc, j, b"c", b"m"))
    assert ctx.timers == [(("flush",), 0)]
    batch = ring_flush(machine, ctx)
    assert list(batch.payloads) == sorted(dense_id(j, 4) for j in range(n))
    assert not machine.pending
    assert [tag[0] for tag, _ in ctx.timers] == ["flush", "reduce"]


def test_broker_flush_timer_tracks_pending_submissions(oracle,
                                                       fake_ctx_factory):
    """Submissions with repeated ids, flush rings and rings with nothing
    pending, interleaved at random: a flush timer is outstanding exactly
    when a submission is pending, and each flush batches the oldest
    pending submission of each id."""
    sc = preloaded_scenario()
    ctx = fake_ctx_factory(broker(0))
    rng = random.Random(16)
    machine = BrokerMachine()
    queued: dict = {}  # id -> contexts submitted and not yet batched
    outstanding = 0
    for k in range(300):
        timers = len(ctx.timers)
        step = rng.random()
        if step < 0.6:
            j = rng.randrange(6)
            context = b"c%d" % k
            machine._on_submission(ctx, client(j), make_submission(
                oracle, sc, j, context, b"m"))
            queued.setdefault(dense_id(j, 4), deque()).append(context)
        elif outstanding or step < 0.8:  # with none outstanding, spurious
            outstanding = max(outstanding - 1, 0)
            batch = ring_flush(machine, ctx)
            expected = {i: q.popleft() for i, q in sorted(queued.items())}
            queued = {i: q for i, q in queued.items() if q}
            if expected:
                assert {i: c for i, (c, _) in batch.payloads.items()} == \
                    expected
            else:
                assert batch is None
        outstanding += ctx.timers[timers:].count((("flush",), 0))
        assert outstanding == (1 if machine.pending else 0)
        assert {i: [s.context for s in q]
                for i, q in machine.pending.items()} == {
            i: list(q) for i, q in queued.items()}


def test_broker_drops_invalid_client_signature(oracle, fake_ctx_factory):
    sc = preloaded_scenario()
    ctx = fake_ctx_factory(broker(0))
    a = preloaded_directory(oracle, sc)[0]
    bad = Submission(a, b"c", b"m", bytes(64))
    machine = BrokerMachine()
    machine._on_submission(ctx, client(0), bad)
    assert not machine.pending


def test_broker_late_reduction_stays_straggler(oracle, fake_ctx_factory):
    sc = preloaded_scenario()
    ctx = fake_ctx_factory(broker(0))
    s1 = make_submission(oracle, sc, 1, b"c", b"m")
    machine, root, batch = drive_broker_to_batch(oracle, ctx, [s1])
    machine._reduce(ctx, root)  # reduce timer fires before any reduction
    assert batch.phase is Phase.WITNESSING
    red = Reduction(root, oracle.multisign(client(1), stmt_reduction(root)))
    machine._on_reduction(ctx, client(1), red)
    assert batch.signatures and not batch.reductions


def test_broker_timely_reduction_moves_id(oracle, fake_ctx_factory):
    sc = preloaded_scenario()
    ctx = fake_ctx_factory(broker(0))
    s1 = make_submission(oracle, sc, 1, b"c", b"m")
    machine, root, batch = drive_broker_to_batch(oracle, ctx, [s1])
    red = Reduction(root, oracle.multisign(client(1), stmt_reduction(root)))
    machine._on_reduction(ctx, client(1), red)
    assert batch.reductions and not batch.signatures
    wrong = Reduction(root, oracle.multisign(client(2), stmt_reduction(root)))
    machine._on_reduction(ctx, client(2), wrong)  # not a contributor
    assert list(batch.reductions) == [(1, 0)]


def test_broker_rejects_unknown_unknowns(oracle, fake_ctx_factory):
    sc = preloaded_scenario()
    ctx = fake_ctx_factory(broker(0))
    s1 = make_submission(oracle, sc, 1, b"c", b"m")
    machine, root, batch = drive_broker_to_batch(oracle, ctx, [s1])
    machine._reduce(ctx, root)
    before = len(ctx.sent)
    machine._on_batch_acquired(ctx, server(0),
                               BatchAcquired(root, ((3, 999),)))
    assert len(ctx.sent) == before  # no Signatures reply
    machine._on_batch_acquired(ctx, server(0), BatchAcquired(root, ()))
    sigs = [m for _, m in ctx.sent if isinstance(m, Signatures)]
    assert len(sigs) == 1 and sigs[0].stragglers


def test_broker_rejects_false_exception_shard(oracle, fake_ctx_factory):
    from batchcast.crypto import Certificate, MerkleProof
    from batchcast.wire import EquivocationProof

    sc = preloaded_scenario()
    ctx = fake_ctx_factory(broker(0))
    s1 = make_submission(oracle, sc, 1, b"c", b"m")
    machine, root, batch = drive_broker_to_batch(oracle, ctx, [s1])
    machine._reduce(ctx, root)
    batch.phase = Phase.COMMITTING
    ident = (1, 0)
    fake = EquivocationProof(bytes(32),
                             Certificate(frozenset({3}), bytes(48)),
                             MerkleProof(0, ()), b"x")
    shard = oracle.multisign(server(3), stmt_commit(root, frozenset({ident})))
    machine._on_commit_shard(ctx, server(3),
                             CommitShard(root, ((ident, fake),), shard))
    assert 3 not in batch.commits  # whole shard rejected


def test_broker_mixed_exceptions_group_into_patches(oracle, fake_ctx_factory):
    sc = preloaded_scenario()
    ctx = fake_ctx_factory(broker(0))
    subs = [make_submission(oracle, sc, j, b"c%d" % j, b"m%d" % j)
            for j in (1, 2)]
    machine, root, batch = drive_broker_to_batch(oracle, ctx, subs)
    machine._reduce(ctx, root)
    batch.phase = Phase.COMMITTING
    batch.committable = True
    batch.commit_to = {0, 1, 2, 3}
    target = (1, 0)  # client 1's id

    # a witnessed conflicting batch gives servers a real equivocation proof
    other_leaf = leaf_bytes(target, b"c1", b"other")
    other_tree = MerkleTree([other_leaf])
    other_root = other_tree.root()
    witness_cert = oracle.certify(
        {o: oracle.multisign(server(o), stmt_witness(other_root))
         for o in range(2)})
    from batchcast.wire import EquivocationProof
    proof = EquivocationProof(other_root, witness_cert, other_tree.prove(0),
                              b"other")

    for o in (0, 1):
        shard = oracle.multisign(server(o),
                                 stmt_commit(root, frozenset({target})))
        machine._on_commit_shard(ctx, server(o),
                                 CommitShard(root, ((target, proof),), shard))
    empty = oracle.multisign(server(2), stmt_commit(root, frozenset()))
    machine._on_commit_shard(ctx, server(2), CommitShard(root, (), empty))
    # the third accepted shard is a quorum: the batch commits at once

    commits = [m for _, m in ctx.sent if isinstance(m, Commit)]
    assert len(commits) == 4
    patches = dict(commits[0].patches)
    assert set(patches) == {(), (target,)}
    assert batch.exclusions == frozenset({target})
    signer_total = sum(len(c.signers) for c in patches.values())
    assert signer_total >= 3


def test_broker_partial_reduction_splits_signatures(oracle, fake_ctx_factory):
    # 8 payloads, 4 timely reductions: the aggregate covers the timely half,
    # the straggler set carries the other 4 individual signatures
    sc = preloaded_scenario()
    ctx = fake_ctx_factory(broker(0))
    subs = [make_submission(oracle, sc, j, b"c%d" % j, b"m%d" % j)
            for j in range(8)]
    machine, root, batch = drive_broker_to_batch(oracle, ctx, subs)
    assert set(batch.signatures) == set(batch.payloads)
    timely = [1, 4, 6, 7]
    for j in timely:
        red = Reduction(root, oracle.multisign(client(j),
                                               stmt_reduction(root)))
        machine._on_reduction(ctx, client(j), red)
        # straggler partition invariant holds after every move
        assert set(batch.signatures) | set(batch.reductions) == \
            set(batch.payloads)
        assert not set(batch.signatures) & set(batch.reductions)
    machine._reduce(ctx, root)
    machine._on_batch_acquired(ctx, server(0), BatchAcquired(root, ()))
    sigs = [m for _, m in ctx.sent if isinstance(m, Signatures)][-1]
    assert len(sigs.stragglers) == 4
    stragglers = {d + 4 * i for (d, i), _ in sigs.stragglers}
    assert stragglers == {0, 2, 3, 5}

    # a server authenticates the split batch: 4 individual + 1 aggregate
    sctx = fake_ctx_factory(server(0))
    preload = preloaded_directory(oracle, sc)
    smachine = ServerMachine(preload)
    smachine.on_start(sctx)
    ids = sorted(batch.payloads)
    resp = smachine.handle_batch(
        sctx, compress_ids(ids),
        tuple(batch.payloads[i] for i in ids))
    before_agg = verify_rows(sctx, "verify_aggregate")
    before_ind = verify_rows(sctx, "verify")
    shard = smachine.handle_signatures(sctx, sigs)
    assert isinstance(shard, WitnessShard)
    assert verify_rows(sctx, "verify_aggregate") == before_agg + 1
    assert verify_rows(sctx, "verify") == before_ind + 4


# -- server --------------------------------------------------------------------


def server_with_batch(oracle, ctx, scenario, ordinals=(1, 2)):
    preload = preloaded_directory(oracle, scenario)
    machine = ServerMachine(preload)
    machine.on_start(ctx)
    ids = [(j % 4, j // 4) for j in sorted(ordinals)]
    payloads = tuple((b"c%d" % j, b"m%d" % j) for j in sorted(ordinals))
    resp = machine.handle_batch(ctx, compress_ids(ids), payloads)
    return machine, resp


def test_server_batch_acquired_empty_unknowns(oracle, fake_ctx_factory):
    sc = preloaded_scenario()
    ctx = fake_ctx_factory(server(0))
    machine, resp = server_with_batch(oracle, ctx, sc)
    assert isinstance(resp, BatchAcquired) and resp.unknowns == ()


def test_server_reports_unknown_ids(oracle, fake_ctx_factory):
    sc = preloaded_scenario()
    ctx = fake_ctx_factory(server(0))
    machine = ServerMachine()  # empty directory
    ids = [(1, 0)]
    resp = machine.handle_batch(ctx, compress_ids(ids),
                                ((b"c", b"m"),))
    assert resp.unknowns == ((1, 0),)


def test_server_rejects_length_mismatch(oracle, fake_ctx_factory):
    ctx = fake_ctx_factory(server(0))
    machine = ServerMachine()
    resp = machine.handle_batch(ctx, compress_ids([(1, 0)]),
                                ((b"c", b"m"), (b"c2", b"m2")))
    assert resp is None


def test_every_server_rejects_duplicate_ids_after_a_valid_batch(
        oracle, fake_ctx_factory):
    sc = preloaded_scenario()
    preload = preloaded_directory(oracle, sc)
    machines = [ServerMachine(preload) for _ in range(4)]
    ctxs = [fake_ctx_factory(server(k)) for k in range(4)]
    valid = BatchMsg(compress_ids([(1, 0), (2, 0)]),
                     ((b"c1", b"m1"), (b"c2", b"m2")))
    duplicate = BatchMsg(((1, (0, 0)),), ((b"c1", b"m1"), (b"c1", b"m2")))
    unsorted = BatchMsg(((1, (2, 0)),), ((b"c1", b"m1"), (b"c2", b"m2")))
    for msg in (valid, duplicate, unsorted, duplicate):
        for machine, ctx in zip(machines, ctxs):
            machine.on_message(ctx, broker(0), msg)
    for machine, ctx in zip(machines, ctxs):
        assert [type(m) for _, m in ctx.sent] == [BatchAcquired]
        assert len(machine.batches) == 1


def test_batch_check_recomputes_lists():
    """The cache reads its arguments by value: tuples of a caller's lists,
    mutated in between, are checked again."""
    compressed, payloads = [(1, (0,))], [(b"c", b"m")]
    first = checked_batch(tuple(compressed), tuple(payloads))
    payloads[0] = (b"c", b"other")
    second = checked_batch(tuple(compressed), tuple(payloads))
    assert first[0] == second[0] == ((1, 0),)
    assert first[1] != second[1]
    compressed.append((2, (0,)))
    # two ids, one payload
    assert checked_batch(tuple(compressed), tuple(payloads)) is None


def test_server_batch_redelivery_idempotent(oracle, fake_ctx_factory):
    sc = preloaded_scenario()
    ctx = fake_ctx_factory(server(0))
    machine, first = server_with_batch(oracle, ctx, sc)
    again = machine.handle_batch(
        ctx, compress_ids(list(machine.batches[first.root].ids)),
        tuple(machine.batches[first.root].payloads))
    assert again.root == first.root
    assert len(machine.batches) == 1


def test_server_signature_path_good_case_single_verification(
        oracle, fake_ctx_factory):
    sc = preloaded_scenario()
    ctx = fake_ctx_factory(server(0))
    machine, resp = server_with_batch(oracle, ctx, sc, ordinals=(1, 2))
    root = resp.root
    msig = oracle.aggregate([
        oracle.multisign(client(1), stmt_reduction(root)),
        oracle.multisign(client(2), stmt_reduction(root))])
    before = verify_rows(ctx, "verify_aggregate")
    ind_before = verify_rows(ctx, "verify")
    shard = machine.handle_signatures(ctx, Signatures(root, (), msig, ()))
    assert isinstance(shard, WitnessShard)
    assert verify_rows(ctx, "verify_aggregate") == before + 1
    assert verify_rows(ctx, "verify") == ind_before


def test_server_rejects_forged_straggler(oracle, fake_ctx_factory):
    sc = preloaded_scenario()
    ctx = fake_ctx_factory(server(0))
    machine, resp = server_with_batch(oracle, ctx, sc, ordinals=(1, 2))
    root = resp.root
    msig = oracle.aggregate([oracle.multisign(client(2),
                                              stmt_reduction(root))])
    bad = Signatures(root, (), msig, (((1, 0), bytes(64)),))
    assert machine.handle_signatures(ctx, bad) is None


def test_server_requires_all_assignments(oracle, fake_ctx_factory):
    ctx = fake_ctx_factory(server(0))
    machine = ServerMachine()
    resp = machine.handle_batch(ctx, compress_ids([(1, 0)]),
                                ((b"c", b"m"),))
    msig = oracle.aggregate([oracle.multisign(client(1),
                                              stmt_reduction(resp.root))])
    assert machine.handle_signatures(
        ctx, Signatures(resp.root, (), msig, ())) is None


def test_server_duplicate_commit_no_double_delivery(oracle, fake_ctx_factory):
    sc = preloaded_scenario()
    ctx = fake_ctx_factory(server(0))
    machine, resp = server_with_batch(oracle, ctx, sc, ordinals=(1, 2))
    root = resp.root
    cert = oracle.certify(
        {o: oracle.multisign(server(o), stmt_commit(root, frozenset()))
         for o in range(3)})
    patches = (((), cert),)
    shard1 = machine.handle_commit(ctx, root, patches)
    shard2 = machine.handle_commit(ctx, root, patches)
    assert isinstance(shard1, CompletionShard)
    assert isinstance(shard2, CompletionShard)
    deliveries = [e for e in ctx.events if e[0] == "app_deliver"]
    assert len(deliveries) == 2  # two payloads, delivered once each


def test_server_commit_needs_quorum_signers(oracle, fake_ctx_factory):
    sc = preloaded_scenario()
    ctx = fake_ctx_factory(server(0))
    machine, resp = server_with_batch(oracle, ctx, sc)
    root = resp.root
    thin = oracle.certify(
        {o: oracle.multisign(server(o), stmt_commit(root, frozenset()))
         for o in range(2)})
    assert machine.handle_commit(ctx, root, (((), thin),)) is None
    assert not [e for e in ctx.events if e[0] == "app_deliver"]


# -- totality ---------------------------------------------------------------------


def test_good_case_offers_all_ignored():
    sim = run_scenario(good_case(n_clients=4))
    offers = [e for e in sim.trace if e.kind == "deliver"
              and e.tag == "OfferTotality" and e.src != e.dst]
    accepts = [e for e in sim.trace if e.kind == "send"
               and e.tag == "AcceptTotality"]
    assert offers and not accepts


def test_lone_commit_broker_totality_rescues_everyone():
    sc = Scenario(name="lone_commit", n_servers=4, fault_bound=1,
                  n_brokers=2, n_clients=3, synchrony=ADVERSARIAL,
                  delay_policy=DelayPolicy(kind="constant"),
                  timer_policy="timeout",
                  fault_script={"B0": {"behavior": "lone_commit_broker"}},
                  broadcasts=[{"client": j, "context": "%08x" % j,
                               "message": "%08x" % (j + 100), "at": 0}
                              for j in range(3)])
    sim = run_scenario(sc)
    from batchcast.properties import check_trace
    verdicts = check_trace(sim.trace)
    assert all(v.ok for v in verdicts.values())
    per_server = {f"S{i}": {e.extra["context"] for e in sim.trace
                            if e.kind == "app_deliver"
                            and e.src == f"S{i}"}
                  for i in range(4)}
    assert all(len(v) == 3 for v in per_server.values())
    accepts = [e for e in sim.trace if e.kind == "send"
               and e.tag == "AcceptTotality"]
    assert accepts  # the rescue actually went through the fallback


def totality_requests(sender):
    """The replies of S0, after a good-case run, to an `AcceptTotality` and
    an `OfferTotality` of its batch from `sender`, and the `Totality` sent
    to a server's `AcceptTotality`."""
    sim = run_scenario(good_case(n_clients=4))
    machine = sim.machines[server(0)]
    (root, batch), = machine.batches.items()
    (exclusions,) = batch.commits
    replies = []
    for msg in (AcceptTotality(root, exclusions),
                OfferTotality(root, frozenset({(0, 0)}))):
        ctx = FakeCtx(sim.oracle, server(0))
        machine.on_message(ctx, sender, msg)
        replies.append([type(m) for _, m in ctx.sent])
    ctx = FakeCtx(sim.oracle, server(0))
    machine.on_message(ctx, server(1), AcceptTotality(root, exclusions))
    [(_, totality)] = ctx.sent
    return sim, replies, totality


def test_servers_answer_totality_requests_from_servers():
    _, replies, totality = totality_requests(server(1))
    assert replies == [[Totality], [AcceptTotality]]
    assert len(totality.payloads) == 4


@pytest.mark.parametrize("sender", [client(0), broker(0)],
                         ids=["client", "broker"])
def test_servers_ignore_totality_requests_from_others(sender):
    """A client or broker could otherwise draw a whole batch, with its
    assignments and patches, from each server for one small request."""
    _, replies, _ = totality_requests(sender)
    assert replies == [[], []]


@pytest.mark.parametrize("sender", [client(0), broker(0), server(1)],
                         ids=["client", "broker", "server"])
def test_servers_import_totality_only_from_servers(sender):
    sim, _, totality = totality_requests(server(1))
    ctx = FakeCtx(sim.oracle, server(2))
    machine = ServerMachine()  # knows nothing of the batch
    machine.on_message(ctx, sender, totality)
    delivered = [e for e in ctx.events if e[0] == "app_deliver"]
    if sender == server(1):
        assert len(delivered) == 4 and machine.batches
    else:
        assert not delivered and not machine.batches


@pytest.mark.parametrize("sender", [client(0), broker(0), server(1)],
                         ids=["client", "broker", "server"])
def test_brokers_answer_batch_acquired_only_from_servers(
        sender, oracle, fake_ctx_factory):
    """A broker returns a batch's signatures and assignments to servers
    alone."""
    sc = preloaded_scenario()
    ctx = fake_ctx_factory(broker(0))
    subs = [make_submission(oracle, sc, j, b"c%d" % j, b"m") for j in (0, 1)]
    machine, root, _ = drive_broker_to_batch(oracle, ctx, subs)
    machine._reduce(ctx, root)
    before = len(ctx.sent)
    machine.on_message(ctx, sender, BatchAcquired(root, ((0, 0), (1, 0))))
    replies = [m for _, m in ctx.sent[before:]]
    if sender == server(1):
        [signatures] = replies
        assert isinstance(signatures, Signatures)
        assert len(signatures.assignments) == 2
    else:
        assert replies == []


def test_corpus_scenarios_quiesce_with_consistent_state():
    for name, factory in CORPUS.items():
        sim = run_scenario(factory(), seed=13)
        assert not sim._queue


def test_servers_share_one_merkle_build_per_batch(monkeypatch):
    """The broker builds one tree per batch and the four servers, handed
    one decoded `BatchMsg`, share one more."""
    builds = []
    init = MerkleTree.__init__

    def counting_init(tree, leaves):
        builds.append(tree)
        init(tree, leaves)
    monkeypatch.setattr(MerkleTree, "__init__", counting_init)
    sim = run_scenario(batching_limit(m=256, n_clients=256))
    stored = [m.batches for m in sim.machines.values()
              if isinstance(m, ServerMachine)]
    roots = {root for batches in stored for root in batches}
    assert len(stored) == 4 and all(set(b) == roots for b in stored)
    assert len(roots) >= 1 and len(builds) == 2 * len(roots)
    for root in roots:  # one shared ids tuple, not one per server
        assert len({id(batches[root].ids) for batches in stored}) == 1


def test_two_simulations_of_one_batch_share_no_ids():
    """Each simulation keeps its own batch check: the servers of two runs of
    one batch hold distinct `ids` tuples."""
    sims = [run_scenario(batching_limit(m=64, n_clients=64))
            for _ in range(2)]
    held = [{id(batch.ids) for machine in sim.machines.values()
             if isinstance(machine, ServerMachine)
             for batch in machine.batches.values()} for sim in sims]
    assert all(held) and not held[0] & held[1]


def test_broker_keeps_no_drained_queue():
    sim = run_scenario(batching_limit(m=256, n_clients=256))
    (broker_machine,) = [m for m in sim.machines.values()
                         if isinstance(m, BrokerMachine)]
    assert broker_machine.pending == {}


def test_preloaded_clients_keep_at_most_nine_objects_each():
    """Objects the collector tracks per client after a one-batch run: the
    growth from M = 256 to M = 1024, each simulation kept alive."""
    def tracked():
        gc.collect()
        return len(gc.get_objects())

    sims, counts = [], [tracked()]
    for m in (256, 1024):
        sims.append(run_scenario(batching_limit(m=m, n_clients=m)))
        counts.append(tracked())
    before, small, large = counts
    per_client = ((large - small) - (small - before)) / (1024 - 256)
    assert per_client <= 9.0, per_client


def test_only_servers_and_brokers_keep_a_directory_view():
    """A client holds its own assignment, not a view of one entry, and
    keeps no set of completed roots."""
    def views():
        gc.collect()
        return sum(isinstance(o, DirectoryView) for o in gc.get_objects())

    before = views()
    sim = run_scenario(batching_limit(m=256, n_clients=256))
    assert views() - before == 4 + 1
    clients = [m for m in sim.machines.values()
               if isinstance(m, ClientMachine)]
    assert len(clients) == 256
    for machine in clients:
        assert not hasattr(machine, "view")
        assert not hasattr(machine, "completed")
        assert machine.assignment is not None
