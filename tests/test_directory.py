"""Id assignment: signup flows, transfer, lookups, density."""

import random

from conftest import FakeCtx

from batchcast.crypto import Certificate
from batchcast.directory import ClientSignup, DirectoryView, ServerDirectory
from batchcast.procs import broker, client, server
from batchcast.protocol import ClientMachine
from batchcast.scenarios import (build_assignment, concurrent_signup,
                                 run_scenario)
from batchcast.simnet import GOOD_CASE, Scenario
from batchcast.wire import (Assigner, Assignment, AssignShard, Ranked,
                            stmt_assignment)


def signup_scenario(n_clients=1, **kwargs):
    defaults = dict(name="signup", n_servers=4, fault_bound=1, n_brokers=1,
                    n_clients=n_clients, synchrony=GOOD_CASE,
                    preload_directory=False)
    defaults.update(kwargs)
    return Scenario(**defaults)


def test_good_case_signup_completes_and_knows_itself():
    sim = run_scenario(signup_scenario())
    kinds = [e.kind for e in sim.trace if e.src == "C0"]
    assert "signup" in kinds and "signup_complete" in kinds
    assert kinds.index("signup") < kinds.index("signup_complete")
    machine = sim.machines[client(0)]
    ident = machine.assignment.ident
    assert ident is not None


def test_assigned_index_matches_ranking_position():
    sim = run_scenario(signup_scenario(n_clients=3))
    for j in range(3):
        machine = sim.machines[client(j)]
        ident = machine.assignment.ident
        domain, index = ident
        ranking = sim.machines[server(0)].dir.rankings[domain]
        assert ranking[index] == sim.oracle.keycard(client(j))


def test_concurrent_signups_distinct_dense_ids():
    sim = run_scenario(concurrent_signup(n_clients=6), seed=17)
    idents = []
    for j in range(6):
        machine = sim.machines[client(j)]
        ident = machine.assignment.ident
        assert ident is not None
        assert ident[1] < 4 + 1 + 6  # density: index below process count
        idents.append(ident)
    assert len(set(idents)) == 6


def assign_shard(oracle, o, ident, card) -> AssignShard:
    """Server `o`'s shard on `card` holding `ident`."""
    return AssignShard(ident[1],
                       oracle.multisign(server(o), stmt_assignment(ident, card)))


def test_server_never_signs_twice_for_one_process(oracle):
    ctx = FakeCtx(oracle, server(0))
    d = ServerDirectory(4, 1)
    card = oracle.keycard(client(0))
    d._on_rank(ctx, 2, card)
    for domain in (2, 2, 1):  # the first assigner holds
        assert d.handle(ctx, client(0), Assigner(domain))
    d._on_rank(ctx, 2, card)  # a repeated slot
    d._on_rank(ctx, 1, card)  # the log of a later, ignored choice
    d._on_rank(ctx, 2, oracle.keycard(client(1)))
    shards = [(dst, m) for dst, m in ctx.sent if isinstance(m, AssignShard)]
    assert shards == [(client(0), assign_shard(oracle, 0, (2, 0), card))]


def test_server_signs_each_assigned_and_ranked_keycard_once(oracle):
    """Random interleavings of FIFO rankings (repeats included, as a faulty
    origin could cause) and clients' assigner choices: a server signs each
    keycard whose first-chosen assigner's log ranked it, once, at its place
    in that log, and no other keycard."""
    cards = [oracle.keycard(client(j)) for j in range(8)]
    stranger = bytes(48)  # ranked, but owned by no process
    for trial in range(200):
        rng = random.Random(trial)
        ctx = FakeCtx(oracle, server(0))
        d = ServerDirectory(4, 1)
        rankings, assigners = {}, {}
        for _ in range(rng.randrange(1, 40)):
            if rng.random() < 0.6:
                origin, card = rng.randrange(4), rng.choice(cards + [stranger])
                d._on_rank(ctx, origin, card)
                ranking = rankings.setdefault(origin, [])
                if card not in ranking:
                    ranking.append(card)
            else:
                j, domain = rng.randrange(8), rng.randrange(4)
                assert d.handle(ctx, client(j), Assigner(domain))
                assigners.setdefault(cards[j], domain)
        expected = []
        for card, domain in assigners.items():
            ranking = rankings.get(domain, [])
            if card in ranking:
                ident = (domain, ranking.index(card))
                expected.append((client(cards.index(card)),
                                 assign_shard(oracle, 0, ident, card)))
        shards = [(dst, m) for dst, m in ctx.sent if isinstance(m, AssignShard)]
        assert sorted(shards) == sorted(expected), trial


def client_signup(fake_ctx_factory):
    """A joining C0's signup at f = 1, its context, and the assignments it
    hands over."""
    done = []
    signup = ClientSignup(1, 4, lambda _ctx, a: done.append(a))
    return signup, fake_ctx_factory(client(0)), done


def test_signup_elects_at_f_plus_1_distinct_servers(fake_ctx_factory):
    signup, ctx, _ = client_signup(fake_ctx_factory)
    for _ in range(3):
        assert signup.handle(ctx, server(1), Ranked(2))
    assert signup.assigner is None and ctx.sent == []
    assert signup.handle(ctx, server(3), Ranked(2))
    assert signup.assigner == 2
    assert ctx.sent == [(server(o), Assigner(2)) for o in range(4)]


def test_signup_keeps_its_first_assigner(fake_ctx_factory):
    signup, ctx, _ = client_signup(fake_ctx_factory)
    for o in (0, 1):
        signup.handle(ctx, server(o), Ranked(3))
    for o in (0, 1, 2):  # a lower domain reaches f+1 later
        signup.handle(ctx, server(o), Ranked(0))
    assert signup.assigner == 3
    assert ctx.sent == [(server(o), Assigner(3)) for o in range(4)]


def test_signup_completes_once_and_verifies_every_shard(oracle,
                                                        fake_ctx_factory):
    signup, ctx, done = client_signup(fake_ctx_factory)
    card = ctx.keycard()
    verified = []
    verify = ctx.verify_aggregate
    ctx.verify_aggregate = lambda *args: verified.append(args) or verify(*args)
    # before the election a shard is dropped unverified
    assert signup.handle(ctx, server(0), assign_shard(oracle, 0, (1, 5), card))
    for o in (0, 1):
        signup.handle(ctx, server(o), Ranked(1))
    forged = assign_shard(oracle, 2, (1, 6), card)
    shards = [(server(0), assign_shard(oracle, 0, (1, 5), card)),
              (server(1), assign_shard(oracle, 1, (1, 5), card)),
              (server(2), AssignShard(5, forged.shard)),
              (server(2), assign_shard(oracle, 2, (1, 5), card))]
    for src, msg in shards:
        assert not done
        assert signup.handle(ctx, src, msg)
    assert [a.ident for a in done] == [(1, 5)]
    assert DirectoryView().import_assignment(fake_ctx_factory(server(1)),
                                             done[0])
    for o in (3, 0, 1, 2):  # later shards, and another index at 2f+1
        assert signup.handle(ctx, server(o),
                             assign_shard(oracle, o, (1, 6), card))
    assert len(done) == 1 and len(verified) == 4 + 4
    assert [k for k, _ in ctx.events].count("signup_complete") == 1


def test_signup_consumes_non_server_messages_silently(oracle,
                                                      fake_ctx_factory):
    signup, ctx, done = client_signup(fake_ctx_factory)
    card = ctx.keycard()
    for o in (0, 1):
        signup.handle(ctx, server(o), Ranked(0))
    sent, verified = list(ctx.sent), []
    ctx.verify_aggregate = lambda *args: verified.append(args)
    for src in (broker(0), client(1), broker(1)):
        assert signup.handle(ctx, src, Ranked(1))
        assert signup.handle(ctx, src, assign_shard(oracle, 0, (0, 0), card))
    assert signup.rankings == {0: {0, 1}} and signup.assigner == 0
    assert signup.shards == {} and ctx.sent == sent and verified == []
    assert ctx.events == [] and done == []


def test_preloaded_client_keeps_no_signup(oracle, fake_ctx_factory):
    a = build_assignment(oracle, signup_scenario(n_clients=8), 0)
    machine = ClientMachine(4, 1, 1, preloaded=a)
    assert machine.signup is None
    assert ClientMachine(4, 1, 1).signup is not None
    ctx = fake_ctx_factory(client(0))
    for o in range(4):
        machine.on_message(ctx, server(o), Ranked(1))
        machine.on_message(ctx, server(o),
                           assign_shard(oracle, o, (1, 0), a.keycard))
    assert ctx.sent == [] and ctx.events == [] and machine.assignment is a


def test_export_import_transfers_knowledge(oracle, fake_ctx_factory):
    scenario = signup_scenario(n_clients=8, preload_directory=True)
    a = build_assignment(oracle, scenario, 3)
    exporter = DirectoryView()
    exporter.preload(a)
    exported = exporter.export(a.ident)
    assert exported == a

    importer = DirectoryView()
    ctx = fake_ctx_factory(server(1))
    assert importer.import_assignment(ctx, exported)
    assert importer.lookup_id(a.ident) == a.keycard
    assert importer.lookup_keycard(a.keycard) == a.ident


def test_import_rejects_tampered_certificate(oracle, fake_ctx_factory):
    scenario = signup_scenario(n_clients=8, preload_directory=True)
    a = build_assignment(oracle, scenario, 3)
    flipped = Certificate(frozenset({0, 1, 3}), a.certificate.msig)
    bad = Assignment(a.ident, a.keycard, flipped)
    view = DirectoryView()
    ctx = fake_ctx_factory(server(1))
    assert not view.import_assignment(ctx, bad)
    assert view.lookup_id(a.ident) is None
    assert ctx.events[-1][0] == "dir_import_rejected"


def test_import_rejects_thin_certificate(oracle, fake_ctx_factory):
    # only f+1 signers: below the quorum an assignment needs
    card = oracle.keycard(client(2))
    stmt = stmt_assignment((1, 0), card)
    shards = {o: oracle.multisign(server(o), stmt) for o in range(2)}
    bad = Assignment((1, 0), card, oracle.certify(shards))
    view = DirectoryView()
    assert not view.import_assignment(fake_ctx_factory(server(1)), bad)


def test_import_is_idempotent(oracle, fake_ctx_factory):
    scenario = signup_scenario(n_clients=8, preload_directory=True)
    a = build_assignment(oracle, scenario, 0)
    view = DirectoryView()
    ctx = fake_ctx_factory(client(5))
    assert view.import_assignment(ctx, a)
    verifications = len(ctx.events)
    assert view.import_assignment(ctx, a)
    assert len(ctx.events) == verifications  # no second import event
    assert view.lookup_id(a.ident) == a.keycard


def test_lookup_unknown_is_absent():
    view = DirectoryView()
    assert view.lookup_id((0, 7)) is None
    assert view.lookup_keycard(b"\x00" * 48) is None
    assert view.export((0, 7)) is None
