"""Id assignment: signup flows, transfer, lookups, density."""

from batchcast.crypto import Certificate
from batchcast.directory import DirectoryView
from batchcast.procs import client, server
from batchcast.scenarios import (build_assignment, concurrent_signup,
                                 run_scenario)
from batchcast.simnet import GOOD_CASE, Scenario
from batchcast.wire import Assigner, Assignment, stmt_assignment


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


def test_server_never_signs_twice_for_one_process(oracle):
    from batchcast.directory import ServerDirectory
    from tests.conftest import FakeCtx

    ctx = FakeCtx(oracle, server(0))
    d = ServerDirectory(4, 1)
    card = oracle.keycard(client(0))
    d._on_rank(ctx, 2, card)
    assert d.handle(ctx, client(0), Assigner(2))
    assert d.handle(ctx, client(0), Assigner(2))
    d._on_rank(ctx, 2, oracle.keycard(client(1)))  # a change: pumps in full
    d._pump(ctx)
    shards = [m for _, m in ctx.sent if type(m).__name__ == "AssignShard"]
    assert len(shards) == 1


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
