"""Client/broker/server state machine behavior, unit and end-to-end."""

import gc

from batchcast.behaviors import CensoringBroker
from batchcast.crypto import MerkleTree, Oracle
from batchcast.directory import DirectoryView
from batchcast.procs import broker, client, server
from batchcast.protocol import (BatchCheck, BrokerMachine, ClientMachine,
                                Phase, ServerMachine, canonical_compressed)
from batchcast.scenarios import (CORPUS, batching_limit, build_assignment,
                                 dense_id, good_case, run_scenario,
                                 silent_broker)
from batchcast.simnet import ADVERSARIAL, DelayPolicy, Scenario
from batchcast.wire import (BatchAcquired, BatchMsg, Commit, CommitShard,
                            Completion, CompletionShard, Inclusion, Reduction,
                            Signatures, Submission, Witness, WitnessShard,
                            leaf_bytes, stmt_commit, stmt_completion,
                            stmt_message, stmt_reduction, stmt_witness)

from conftest import FakeCtx


def preloaded_scenario(n_clients=8):
    return good_case(n_clients=n_clients)


def make_submission(oracle, scenario, ordinal, context, message):
    a = build_assignment(oracle, scenario, ordinal)
    sig = oracle.sign(client(ordinal), stmt_message(context, message))
    return Submission(a, context, message, sig)


def verify_rows(ctx, verb):
    """The `verify` rows of `verb` in the trace of `ctx`'s simulation."""
    return sum(e.kind == "verify" and e.tag == verb for e in ctx.sim.trace)


def drive_broker_to_batch(oracle, ctx, submissions):
    """Feed submissions, fire flush, return the stored batch."""
    machine = BrokerMachine(4, 1)
    for sub in submissions:
        machine._on_submission(ctx, client(0), sub)
    machine._pump(ctx)
    assert ctx.timers and ctx.timers[-1][0] == ("flush",)
    machine._flush(ctx)
    (root, batch), = machine.batches.items()
    return machine, root, batch


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
    m = ClientMachine(4, 2, 1, preloaded=build_assignment(oracle, sc, 0))
    ctx = fake_ctx_factory(client(0))
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
    a = build_assignment(oracle, sc, 0)
    m = ClientMachine(4, 1, 1, preloaded=a)
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
    a = build_assignment(oracle, sc, 0)
    m = ClientMachine(4, 1, 1, preloaded=a)
    ctx = fake_ctx_factory(client(0))
    m.on_start(ctx)
    m.broadcast(ctx, b"ctx", b"msg")
    tree = MerkleTree([leaf_bytes(a.ident, b"ctx", b"spurious")])
    m.on_message(ctx, broker(0), Inclusion(b"ctx", tree.root(),
                                           tree.prove(0)))
    assert not [msg for _, msg in ctx.sent if isinstance(msg, Reduction)]


def test_client_keeps_resubmitting_when_excluded(oracle, fake_ctx_factory):
    sc = preloaded_scenario()
    a = build_assignment(oracle, sc, 0)
    m = ClientMachine(4, 2, 1, preloaded=a)
    ctx = fake_ctx_factory(client(0))
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
    a = build_assignment(oracle, sc, 0)
    m = ClientMachine(4, 1, 1, preloaded=a)
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
    assert list(batch.payloads) == [(0, 0)]
    assert batch.payloads[(0, 0)] == (b"c1", b"m1")
    machine._pump(ctx)  # the pending submission refills the pool
    assert machine.pool and machine.collecting


def test_broker_submission_for_pooled_id_waits_for_flush(oracle,
                                                         fake_ctx_factory):
    sc = preloaded_scenario()
    ctx = fake_ctx_factory(broker(0))
    machine = BrokerMachine(4, 1)
    machine._on_submission(ctx, client(0),
                           make_submission(oracle, sc, 0, b"c1", b"m1"))
    machine._pump(ctx)
    machine._on_submission(ctx, client(0),
                           make_submission(oracle, sc, 0, b"c2", b"m2"))
    machine._pump(ctx)
    assert machine.pool[(0, 0)].context == b"c1"
    assert len(machine.pending[(0, 0)]) == 1
    machine._flush(ctx)
    (batch,) = machine.batches.values()
    assert batch.payloads == {(0, 0): (b"c1", b"m1")}
    assert not machine.pool
    machine._pump(ctx)
    assert machine.pool[(0, 0)].context == b"c2"
    assert (0, 0) not in machine.pending  # a drained queue is dropped


def test_broker_pools_each_id_once_in_any_order(oracle, fake_ctx_factory):
    sc = preloaded_scenario()
    ctx = fake_ctx_factory(broker(0))
    machine = BrokerMachine(4, 1)
    order = [5, 2, 7, 0, 2, 3, 5, 1, 6, 4]  # ordinals 2 and 5 submit twice
    for k, j in enumerate(order):
        machine._on_submission(ctx, client(j), make_submission(
            oracle, sc, j, b"c%d" % k, b"m"))
        if k % 3 == 2:
            machine._pump(ctx)
    machine._pump(ctx)
    first = {}
    for k, j in enumerate(order):
        first.setdefault(dense_id(j, 4), b"c%d" % k)
    assert {i: p.context for i, p in machine.pool.items()} == first
    assert set(machine.pending) == {dense_id(2, 4), dense_id(5, 4)}
    assert all(machine.pending.values())


def test_censoring_broker_pools_uncensored_ids(oracle, fake_ctx_factory):
    sc = preloaded_scenario()
    ctx = fake_ctx_factory(broker(0))
    machine = CensoringBroker(4, 1, censored=[1])
    for j in range(4):
        machine.on_message(ctx, client(j),
                           make_submission(oracle, sc, j, b"c", b"m"))
    assert sorted(machine.pool) == sorted(dense_id(j, 4) for j in (0, 2, 3))
    assert machine.collecting


def test_broker_pools_512_ids_in_one_pump():
    n = 512
    sc = preloaded_scenario(n_clients=n)
    oracle = Oracle(sc.processes())
    ctx = FakeCtx(oracle, broker(0))
    machine = BrokerMachine(4, 1)
    for j in reversed(range(n)):
        machine._on_submission(ctx, client(j),
                               make_submission(oracle, sc, j, b"c", b"m"))
    machine._pump(ctx)
    assert sorted(machine.pool) == sorted(dense_id(j, 4) for j in range(n))
    assert not machine.pending
    assert ctx.timers == [(("flush",), 0)]


def test_broker_drops_invalid_client_signature(oracle, fake_ctx_factory):
    sc = preloaded_scenario()
    ctx = fake_ctx_factory(broker(0))
    a = build_assignment(oracle, sc, 0)
    bad = Submission(a, b"c", b"m", bytes(64))
    machine = BrokerMachine(4, 1)
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
    machine._advance(ctx, root)

    commits = [m for _, m in ctx.sent if isinstance(m, Commit)]
    assert len(commits) == 4
    patches = dict(commits[0].patches)
    assert set(patches) == {(), (target,)}
    assert batch.exclusions == frozenset({target})
    signer_total = sum(c.signer_count() for c in patches.values())
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
    preload = tuple(build_assignment(oracle, sc, j) for j in range(8))
    smachine = ServerMachine(4, 1, preload)
    smachine.on_start(sctx)
    ids = sorted(batch.payloads)
    resp = smachine.handle_batch(
        sctx, canonical_compressed(ids),
        tuple(batch.payloads[i] for i in ids))
    before_agg = verify_rows(sctx, "verify_aggregate")
    before_ind = verify_rows(sctx, "verify")
    shard = smachine.handle_signatures(sctx, sigs)
    assert isinstance(shard, WitnessShard)
    assert verify_rows(sctx, "verify_aggregate") == before_agg + 1
    assert verify_rows(sctx, "verify") == before_ind + 4


# -- server --------------------------------------------------------------------


def server_with_batch(oracle, ctx, scenario, ordinals=(1, 2)):
    preload = tuple(build_assignment(oracle, scenario, j) for j in range(8))
    machine = ServerMachine(4, 1, preload)
    machine.on_start(ctx)
    ids = [(j % 4, j // 4) for j in sorted(ordinals)]
    payloads = tuple((b"c%d" % j, b"m%d" % j) for j in sorted(ordinals))
    resp = machine.handle_batch(ctx, canonical_compressed(ids), payloads)
    return machine, resp


def test_server_batch_acquired_empty_unknowns(oracle, fake_ctx_factory):
    sc = preloaded_scenario()
    ctx = fake_ctx_factory(server(0))
    machine, resp = server_with_batch(oracle, ctx, sc)
    assert isinstance(resp, BatchAcquired) and resp.unknowns == ()


def test_server_reports_unknown_ids(oracle, fake_ctx_factory):
    sc = preloaded_scenario()
    ctx = fake_ctx_factory(server(0))
    machine = ServerMachine(4, 1, ())  # empty directory
    ids = [(1, 0)]
    resp = machine.handle_batch(ctx, canonical_compressed(ids),
                                ((b"c", b"m"),))
    assert resp.unknowns == ((1, 0),)


def test_server_rejects_length_mismatch(oracle, fake_ctx_factory):
    ctx = fake_ctx_factory(server(0))
    machine = ServerMachine(4, 1, ())
    resp = machine.handle_batch(ctx, canonical_compressed([(1, 0)]),
                                ((b"c", b"m"), (b"c2", b"m2")))
    assert resp is None


def test_every_server_rejects_duplicate_ids_after_a_valid_batch(
        oracle, fake_ctx_factory):
    sc = preloaded_scenario()
    preload = tuple(build_assignment(oracle, sc, j) for j in range(8))
    check = BatchCheck()  # shared, as in a simulation
    machines = [ServerMachine(4, 1, preload, check) for _ in range(4)]
    ctxs = [fake_ctx_factory(server(k)) for k in range(4)]
    valid = BatchMsg(canonical_compressed([(1, 0), (2, 0)]),
                     ((b"c1", b"m1"), (b"c2", b"m2")))
    duplicate = BatchMsg(((1, (0, 0)),), ((b"c1", b"m1"), (b"c1", b"m2")))
    for msg in (valid, duplicate, duplicate):
        for machine, ctx in zip(machines, ctxs):
            machine.on_message(ctx, broker(0), msg)
    for machine, ctx in zip(machines, ctxs):
        assert [type(m) for _, m in ctx.sent] == [BatchAcquired]
        assert len(machine.batches) == 1


def test_batch_check_recomputes_lists():
    check_batch = BatchCheck()
    compressed, payloads = [(1, (0,))], [(b"c", b"m")]
    first = check_batch(compressed, payloads)
    payloads[0] = (b"c", b"other")
    second = check_batch(compressed, payloads)
    assert first[0] == second[0] == ((1, 0),)
    assert first[1] != second[1]
    compressed.append((2, (0,)))
    assert check_batch(compressed, payloads) is None  # two ids, one payload


def test_server_batch_redelivery_idempotent(oracle, fake_ctx_factory):
    sc = preloaded_scenario()
    ctx = fake_ctx_factory(server(0))
    machine, first = server_with_batch(oracle, ctx, sc)
    again = machine.handle_batch(
        ctx, canonical_compressed(list(machine.batches[first.root].ids)),
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
    machine = ServerMachine(4, 1, ())
    resp = machine.handle_batch(ctx, canonical_compressed([(1, 0)]),
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
                  delay_policy=DelayPolicy(kind="constant", value=1),
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


def test_corpus_scenarios_quiesce_with_consistent_state():
    for name, factory in CORPUS.items():
        sim = run_scenario(factory(), seed=13)
        assert sim._queue == []


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


def test_broker_keeps_no_drained_queue():
    sim = run_scenario(batching_limit(m=256, n_clients=256))
    (broker_machine,) = [m for m in sim.machines.values()
                         if isinstance(m, BrokerMachine)]
    assert broker_machine.pending == {}


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
