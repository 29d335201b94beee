"""Id assignment: signup flows, transfer, lookups, density."""

import hashlib
import random

import pytest
from assignment_reference import build_assignment
from conftest import FakeCtx, population

from batchcast.crypto import Certificate, MerkleProof, MerkleTree, Oracle
from batchcast.directory import ClientSignup, DirectoryView, ServerDirectory
from batchcast.procs import broker, client, server
from batchcast.protocol import ClientMachine, ServerMachine, compress_ids
from batchcast.scenarios import (batching_limit, build_simulation,
                                 concurrent_signup, preloaded_directory,
                                 run_scenario)
from batchcast.simnet import GOOD_CASE, Scenario
from batchcast.wire import (AcceptTotality, Assigner, Assignment,
                            AssignShard, BatchMsg, Commit, Completion,
                            FifoEcho, FifoReady, FifoSend, Inclusion,
                            OfferTotality, Ranked, Signatures, Signup,
                            Totality, Witness, leaf_bytes, stmt_assignment)


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
        assert ranking[sim.oracle.keycard(client(j))] == index


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
    d = ServerDirectory()
    card = oracle.keycard(client(0))
    d._on_rank(ctx, 2, card)
    for domain in (2, 2, 1):  # the first assigner holds
        d.handle(ctx, client(0), Assigner(domain))
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
        d = ServerDirectory()
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
                d.handle(ctx, client(j), Assigner(domain))
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
    signup = ClientSignup(lambda _ctx, a: done.append(a))
    return signup, fake_ctx_factory(client(0)), done


def test_signup_elects_at_f_plus_1_distinct_servers():
    """The threshold and the fan-out are the context's: at f = 1 and f = 2,
    f servers, each ranking twice, do not elect; one more does, and all N
    servers hear of it."""
    for f, n in ((1, 4), (2, 7)):
        ctx = FakeCtx(Oracle(population(n_servers=n)), client(0), f=f,
                      n_servers=n)
        signup = ClientSignup(lambda _ctx, a: None)
        for o in range(f):
            for _ in range(2):
                signup.handle(ctx, server(o), Ranked(2))
        assert signup.assigner is None and ctx.sent == [], f
        signup.handle(ctx, server(n - 1), Ranked(2))
        assert signup.assigner == 2
        assert ctx.sent == [(server(o), Assigner(2)) for o in range(n)], f


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
    signup.handle(ctx, server(0), assign_shard(oracle, 0, (1, 5), card))
    for o in (0, 1):
        signup.handle(ctx, server(o), Ranked(1))
    forged = assign_shard(oracle, 2, (1, 6), card)
    shards = [(server(0), assign_shard(oracle, 0, (1, 5), card)),
              (server(1), assign_shard(oracle, 1, (1, 5), card)),
              (server(2), AssignShard(5, forged.shard)),
              (server(2), assign_shard(oracle, 2, (1, 5), card))]
    for src, msg in shards:
        assert not done
        signup.handle(ctx, src, msg)
    assert [a.ident for a in done] == [(1, 5)]
    assert DirectoryView().import_assignment(fake_ctx_factory(server(1)),
                                             done[0])
    for o in (3, 0, 1, 2):  # later shards, and another index at 2f+1
        signup.handle(ctx, server(o), assign_shard(oracle, o, (1, 6), card))
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
        signup.handle(ctx, src, Ranked(1))
        signup.handle(ctx, src, assign_shard(oracle, 0, (0, 0), card))
    assert signup.rankings == {0: {0, 1}} and signup.assigner == 0
    assert signup.shards == {} and ctx.sent == sent and verified == []
    assert ctx.events == [] and done == []


def test_preloaded_client_keeps_no_signup(oracle, fake_ctx_factory):
    a = preloaded_directory(oracle, signup_scenario(n_clients=8))[0]
    machine = ClientMachine(preloaded=a)
    assert machine.signup is None
    assert ClientMachine().signup is not None
    ctx = fake_ctx_factory(client(0))
    for o in range(4):
        machine.on_message(ctx, server(o), Ranked(1))
        machine.on_message(ctx, server(o),
                           assign_shard(oracle, o, (1, 0), a.keycard))
    assert ctx.sent == [] and ctx.events == [] and machine.assignment is a


def test_a_live_client_hands_its_signup_only_signup_messages(
        oracle, fake_ctx_factory):
    machine = ClientMachine()
    handed = []
    machine.signup.handle = lambda ctx, src, msg: handed.append(msg)
    ctx = fake_ctx_factory(client(0))
    root = bytes(32)
    signup_messages = [Ranked(1), assign_shard(oracle, 0, (1, 0), bytes(48))]
    for msg in (*signup_messages, Inclusion(b"c", root, MerkleProof(0, ())),
                Completion(root, Certificate(frozenset(), bytes(48)), ())):
        machine.on_message(ctx, server(0), msg)
    assert handed == signup_messages


def test_a_server_hands_its_directory_only_directory_messages(
        oracle, fake_ctx_factory):
    preloads = preloaded_directory(oracle, signup_scenario(
        n_clients=8, preload_directory=True))
    machine = ServerMachine(preloads)
    handed = []
    handle = machine.dir.handle
    machine.dir.handle = lambda *args: handed.append(args[2]) or handle(*args)
    ctx = fake_ctx_factory(server(0))
    root = MerkleTree([leaf_bytes((0, 0), b"c", b"m")]).root()
    directory = [Signup(), Assigner(1), FifoSend(0, b"p"),
                 FifoEcho(1, 0, b"p"), FifoReady(1, 0, b"p")]
    protocol = [BatchMsg(compress_ids([(0, 0)]), ((b"c", b"m"),)),
                Signatures(root, (), bytes(48), ()),
                Witness(root, Certificate(frozenset(), bytes(48))),
                Commit(root, ()), OfferTotality(root, frozenset()),
                AcceptTotality(root, frozenset()),
                Totality(root, (), (), (), ())]
    for msg in directory[:2]:
        machine.on_message(ctx, client(0), msg)
    for msg in (*directory[2:], *protocol):
        machine.on_message(ctx, server(1), msg)
    assert handed == directory
    # the protocol's messages reached their own handlers: the batch is
    # stored and, never committed, its offer is accepted
    assert list(machine.batches) == [root]
    assert (server(1), AcceptTotality(root, frozenset())) in ctx.sent


def test_fifo_messages_from_no_server_change_nothing(fake_ctx_factory):
    """Echoes and Readys from brokers and clients, past every threshold,
    reach a server's FIFO endpoint and change nothing; three from servers
    send a Ready."""
    machine = ServerMachine()
    ctx = fake_ctx_factory(server(0))
    for src in (broker(0), broker(1), client(0), client(1), client(2)):
        for kind in (FifoEcho, FifoReady):
            machine.on_message(ctx, src, kind(1, 0, b"p"))
    fifo = machine.dir.fifo
    assert ctx.sent == [] and ctx.events == []
    assert not (fifo.echoes or fifo.readys or fifo.ready_sent or fifo.held
                or fifo.next_echo or fifo.fifo_next)
    for o in range(3):
        machine.on_message(ctx, server(o), FifoEcho(1, 0, b"p"))
    assert ctx.sent == [(server(o), FifoReady(1, 0, b"p")) for o in range(4)]


def test_export_import_transfers_knowledge(oracle, fake_ctx_factory):
    scenario = signup_scenario(n_clients=8, preload_directory=True)
    a = preloaded_directory(oracle, scenario)[3]
    exporter = DirectoryView()
    exporter.preload(a)
    exported = exporter.export(a.ident)
    assert exported == a

    importer = DirectoryView()
    ctx = fake_ctx_factory(server(1))
    assert importer.import_assignment(ctx, exported)
    assert importer.lookup_id(a.ident) == a.keycard


def test_import_rejects_tampered_certificate(oracle, fake_ctx_factory):
    scenario = signup_scenario(n_clients=8, preload_directory=True)
    a = preloaded_directory(oracle, scenario)[3]
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
    a = preloaded_directory(oracle, scenario)[0]
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
    assert view.export((0, 7)) is None


@pytest.mark.parametrize("m", [1, 7, 256])
@pytest.mark.parametrize("f", [0, 1, 2])
def test_preloaded_directory_matches_the_per_client_reference(f, m):
    """The one-pass directory equals the assignments built one client at a
    time, certificates and their multi-signature bytes included, and its
    certificates share one signer set."""
    scenario = signup_scenario(n_clients=m, n_servers=3 * f + 1,
                               fault_bound=f, preload_directory=True)
    oracle = Oracle(scenario.processes())
    directory = preloaded_directory(oracle, scenario)
    assert len(directory) == m
    for j, a in enumerate(directory):
        reference = build_assignment(oracle, scenario, j)
        assert a == reference, j  # ident, keycard, signers and msig bytes
        assert a.certificate.signers == frozenset(range(2 * f + 1))
    assert len({id(a.certificate.signers) for a in directory}) == 1


def test_each_build_makes_the_same_sha384_calls(monkeypatch):
    """Nothing minted for one simulation is kept for the next: building the
    same scenario twice hashes one keycard per process and one shard per
    signer and client, both times."""
    sha384, calls = hashlib.sha384, []

    def counted(*args):
        calls.append(None)
        return sha384(*args)

    monkeypatch.setattr(hashlib, "sha384", counted)
    made = []
    for _ in range(2):
        before = len(calls)
        build_simulation(batching_limit(m=64, n_clients=64))
        made.append(len(calls) - before)
    assert made == [4 + 1 + 64 + 3 * 64] * 2
