"""Hashing, signatures, multi-signature aggregation, certificates, Merkle."""

import random

from batchcast import crypto
from batchcast.crypto import MerkleTree, merkle_verify
from batchcast.procs import broker, client, server


def test_hash_deterministic_and_sized():
    assert crypto.digest(b"x") == crypto.digest(b"x")
    assert crypto.digest(b"") != crypto.digest(b"\0")
    assert len(crypto.digest(b"payload")) == crypto.DIGEST_BITS // 8


def test_sign_verify(oracle):
    alice = client(0)
    sig = oracle.sign(alice, b"statement")
    assert len(sig) == crypto.SIGNATURE_BITS // 8
    assert oracle.verify(server(0), oracle.keycard(alice), b"statement", sig)
    assert not oracle.verify(server(0), oracle.keycard(alice), b"other", sig)
    assert not oracle.verify(server(0), oracle.keycard(client(1)),
                             b"statement", sig)


def test_forging_requires_the_owner(oracle):
    # an adversary can only mint with its own key; nothing it produces
    # verifies under the victim's keycard
    mallory, alice = client(7), client(0)
    victim = oracle.keycard(alice)
    for attempt in (oracle.sign(mallory, b"m"), bytes(64), b"\x11" * 64):
        assert not oracle.verify(mallory, victim, b"m", attempt)
    assert not oracle.verify_aggregate(mallory, [victim], b"m",
                                       oracle.multisign(mallory, b"m"))


def test_aggregate_single_and_pair(oracle):
    stmt = b"reduction|r"
    m0 = oracle.multisign(client(0), stmt)
    agg = oracle.aggregate([m0])
    assert agg == m0
    assert oracle.verify_aggregate(broker(0), [oracle.keycard(client(0))],
                                   stmt, agg)
    m1 = oracle.multisign(client(1), stmt)
    both = oracle.aggregate([m0, m1])
    assert not oracle.verify_aggregate(broker(0),
                                       [oracle.keycard(client(0))], stmt, both)
    assert oracle.verify_aggregate(
        broker(0), [oracle.keycard(client(0)), oracle.keycard(client(1))],
        stmt, both)


def test_aggregate_many_clients():
    procs = [client(i) for i in range(1024)] + [server(0)]
    oracle = crypto.Oracle(procs)
    stmt = b"reduction|batch-root"
    msigs = [oracle.multisign(client(i), stmt) for i in range(1024)]
    agg = oracle.aggregate(msigs)
    cards = [oracle.keycard(client(i)) for i in range(1024)]
    assert oracle.verify_aggregate(server(0), cards, stmt, agg)
    assert not oracle.verify_aggregate(server(0), cards[:-1], stmt, agg)


def test_aggregate_of_nothing_is_identity(oracle):
    assert oracle.aggregate([]) == bytes(crypto.MULTISIG_BYTES)
    assert oracle.verify_aggregate(server(0), [], b"s",
                                   bytes(crypto.MULTISIG_BYTES))


def test_certificate_thresholds(oracle):
    stmt = b"witness|r"
    f, n = 1, 4
    plurality, quorum = f + 1, 2 * f + 1
    verify = oracle.verify_certificate
    shards = {o: oracle.multisign(server(o), stmt) for o in range(3)}
    cert = oracle.certify(shards)
    assert verify(broker(0), cert, stmt, plurality, n)
    assert verify(broker(0), cert, stmt, quorum, n)
    two = oracle.certify({o: shards[o] for o in (0, 1)})
    assert verify(broker(0), two, stmt, plurality, n)
    assert not verify(broker(0), two, stmt, quorum, n)
    # flipping the claimed signer set breaks verification
    tampered = crypto.Certificate(frozenset({0, 1, 3}), cert.msig)
    assert not verify(broker(0), tampered, stmt, quorum, n)
    assert not verify(broker(0), two, b"witness|r2", plurality, n)


def test_repeated_certificate_check_still_compares_the_claimed_msig(oracle):
    stmt = b"completion|r"
    shards = {o: oracle.multisign(server(o), stmt) for o in range(2)}
    cert = oracle.certify(shards)
    for caller in (client(0), client(1)):  # the second check hits the memo
        assert oracle.verify_certificate(caller, cert, stmt, 2, 4)
    forged = crypto.Certificate(cert.signers, shards[0])
    assert not oracle.verify_certificate(client(2), forged, stmt, 2, 4)
    assert oracle.verify_certificate(client(3), cert, stmt, 2, 4)
    # the threshold and signer-range checks run before the memo
    assert not oracle.verify_certificate(client(3), cert, stmt, 3, 4)
    assert not oracle.verify_certificate(client(3), cert, stmt, 2, 1)


def test_aggregate_check_follows_a_mutated_keycard_list(oracle):
    stmt = b"reduction|r"
    cards = [oracle.keycard(client(0)), oracle.keycard(client(1))]
    msigs = [oracle.multisign(client(j), stmt) for j in range(3)]
    both = oracle.aggregate(msigs[:2])
    assert oracle.verify_aggregate(server(0), cards, stmt, both)
    assert oracle.verify_aggregate(server(1), cards, stmt, both)
    cards.append(oracle.keycard(client(2)))
    assert not oracle.verify_aggregate(server(0), cards, stmt, both)
    assert oracle.verify_aggregate(server(0), cards, stmt,
                                   oracle.aggregate(msigs))
    cards[2] = bytes(crypto.PUBKEY_BYTES)  # no process owns it
    assert not oracle.verify_aggregate(server(0), cards, stmt,
                                       oracle.aggregate(msigs))


def test_merkle_single_leaf():
    tree = MerkleTree([b"only"])
    proof = tree.prove(0)
    assert proof.path == ()
    assert merkle_verify(tree.root(), proof, 0, b"only")


def test_merkle_four_leaves_proof_length():
    leaves = [b"a", b"b", b"c", b"d"]
    tree = MerkleTree(leaves)
    for i, leaf in enumerate(leaves):
        proof = tree.prove(i)
        assert len(proof.path) == 2
        assert merkle_verify(tree.root(), proof, i, leaf)


def test_merkle_rejects_wrong_leaf_and_index():
    leaves = [b"a", b"b", b"c", b"d"]
    tree = MerkleTree(leaves)
    proof = tree.prove(1)
    assert not merkle_verify(tree.root(), proof, 1, b"x")
    assert not merkle_verify(tree.root(), proof, 2, b"b")
    assert not merkle_verify(tree.root(), tree.prove(2), 1, b"b")


def test_merkle_random_trees():
    rng = random.Random(31337)
    for size in (1, 2, 3, 5, 8, 33, 100, 4096):
        leaves = [rng.randbytes(rng.randint(1, 40)) for _ in range(size)]
        tree = MerkleTree(leaves)
        sample = range(size) if size <= 33 else rng.sample(range(size), 24)
        cap = (size - 1).bit_length() if size > 1 else 0
        for i in sample:
            proof = tree.prove(i)
            assert len(proof.path) <= cap or size == 1
            assert merkle_verify(tree.root(), proof, i, leaves[i])
            mutated = bytearray(leaves[i])
            mutated[rng.randrange(len(mutated))] ^= 0x40
            assert not merkle_verify(tree.root(), proof, i, bytes(mutated))


def test_merkle_proof_length_exact_at_powers_of_two():
    for size in (1, 2, 4, 8, 16, 64):
        leaves = [b"%d" % i for i in range(size)]
        tree = MerkleTree(leaves)
        want = (size - 1).bit_length()
        assert all(len(tree.prove(i).path) == want for i in range(size))
