"""Wire-format round-trips, parse safety, and size characteristics."""

import dataclasses
import random
import re
from pathlib import Path

from batchcast import crypto, wire
from batchcast.bits import DecodeError
from batchcast.crypto import Certificate, MerkleProof
from batchcast.scenarios import CORPUS, batching_limit, run_scenario
import pytest

from conftest import live_signup_f2
from test_encoding import RefWriter


CTX = wire.WireContext(4)


def rand_cert(rng):
    signers = frozenset(rng.sample(range(4), rng.randint(1, 4)))
    return Certificate(signers, rng.randbytes(crypto.MULTISIG_BYTES))


def rand_id(rng):
    return (rng.randint(0, 3), rng.randint(0, 500))


def rand_ids(rng, lo=0, hi=6):
    return tuple(sorted({rand_id(rng) for _ in range(rng.randint(lo, hi))}))


def rand_assignment(rng):
    return wire.Assignment(rand_id(rng), rng.randbytes(crypto.PUBKEY_BYTES),
                           rand_cert(rng))


def rand_proof(rng):
    path = tuple((rng.randint(0, 1), rng.randbytes(crypto.DIGEST_BYTES))
                 for _ in range(rng.randint(0, 12)))
    return MerkleProof(rng.randint(0, 4000), path)


def rand_payloads(rng, count):
    if rng.random() < 0.5:  # uniform lengths
        cl, ml = rng.randint(0, 8), rng.randint(0, 8)
        return tuple((rng.randbytes(cl), rng.randbytes(ml))
                     for _ in range(count))
    return tuple((rng.randbytes(rng.randint(0, 8)),
                  rng.randbytes(rng.randint(0, 8))) for _ in range(count))


def rand_compressed(rng):
    ids = rand_ids(rng, lo=1, hi=8)
    mu = {}
    for d, i in ids:
        mu.setdefault(d, []).append(i)
    return tuple((d, tuple(sorted(v))) for d, v in sorted(mu.items())), ids


def rand_patches(rng):
    return tuple((rand_ids(rng), rand_cert(rng))
                 for _ in range(rng.randint(0, 3)))


def rand_message(rng):
    root = rng.randbytes(crypto.DIGEST_BYTES)
    kind = rng.randrange(22)
    if kind == 0:
        return wire.Submission(rand_assignment(rng), rng.randbytes(4),
                               rng.randbytes(4),
                               rng.randbytes(crypto.SIGNATURE_BYTES))
    if kind == 1:
        return wire.Inclusion(rng.randbytes(4), root, rand_proof(rng))
    if kind == 2:
        return wire.Reduction(root, rng.randbytes(crypto.MULTISIG_BYTES))
    if kind == 3:
        compressed, ids = rand_compressed(rng)
        return wire.BatchMsg(compressed, rand_payloads(rng, len(ids)))
    if kind == 4:
        return wire.BatchAcquired(root, rand_ids(rng))
    if kind == 5:
        stragglers = tuple(
            (i, rng.randbytes(crypto.SIGNATURE_BYTES))
            for i in rand_ids(rng))
        assignments = tuple(rand_assignment(rng)
                            for _ in range(rng.randint(0, 2)))
        return wire.Signatures(root, assignments,
                               rng.randbytes(crypto.MULTISIG_BYTES),
                               stragglers)
    if kind == 6:
        return wire.WitnessShard(root, rng.randbytes(crypto.MULTISIG_BYTES))
    if kind == 7:
        return wire.Witness(root, rand_cert(rng))
    if kind == 8:
        conflicts = tuple(
            (i, wire.EquivocationProof(rng.randbytes(crypto.DIGEST_BYTES),
                                       rand_cert(rng), rand_proof(rng),
                                       rng.randbytes(rng.randint(0, 6))))
            for i in rand_ids(rng, hi=3))
        return wire.CommitShard(root, conflicts,
                                rng.randbytes(crypto.MULTISIG_BYTES))
    if kind == 9:
        return wire.Commit(root, rand_patches(rng))
    if kind == 10:
        return wire.CompletionShard(root,
                                    rng.randbytes(crypto.MULTISIG_BYTES))
    if kind == 11:
        return wire.Completion(root, rand_cert(rng),
                               frozenset(rand_ids(rng)))
    if kind == 12:
        return wire.OfferTotality(root, frozenset(rand_ids(rng)))
    if kind == 13:
        return wire.AcceptTotality(root, frozenset(rand_ids(rng)))
    if kind == 14:
        compressed, ids = rand_compressed(rng)
        assignments = tuple(rand_assignment(rng)
                            for _ in range(rng.randint(0, 2)))
        return wire.Totality(root, assignments, compressed,
                             rand_payloads(rng, len(ids)), rand_patches(rng))
    if kind == 15:
        return wire.Signup()
    if kind == 16:
        return wire.Ranked(rng.randint(0, 3))
    if kind == 17:
        return wire.Assigner(rng.randint(0, 3))
    if kind == 18:
        return wire.AssignShard(rng.randint(0, 4000),
                                rng.randbytes(crypto.MULTISIG_BYTES))
    if kind == 19:
        return wire.FifoSend(rng.randint(0, 50), rng.randbytes(8))
    if kind == 20:
        return wire.FifoEcho(rng.randint(0, 3), rng.randint(0, 50),
                             rng.randbytes(8))
    return wire.FifoReady(rng.randint(0, 3), rng.randint(0, 50),
                          rng.randbytes(8))


def test_roundtrip_fuzz():
    rng = random.Random(0xF00D)
    seen = set()
    for _ in range(10_000):
        msg = rand_message(rng)
        seen.add(type(msg))
        data = wire.serialize(CTX, msg)
        assert wire.deserialize(CTX, data) == msg
    assert seen == {cls for cls, _ in wire._SPECS}  # a new type needs fuzzing


def _assert_deeply_immutable(value, where):
    """Only frozen dataclasses, tuples, frozensets, bytes, ints, bools and
    None are reachable from value."""
    if dataclasses.is_dataclass(value):
        assert type(value).__dataclass_params__.frozen, where
        for f in dataclasses.fields(value):
            _assert_deeply_immutable(getattr(value, f.name),
                                     f"{where}.{f.name}")
    elif type(value) in (tuple, frozenset):
        for item in value:
            _assert_deeply_immutable(item, f"{where}[]")
    else:
        assert type(value) in (bytes, int, bool, type(None)), \
            f"{where}: {type(value).__name__}"


def test_decoded_messages_can_be_shared():
    """The simulator hands one decoded message to every delivery of its
    bytes; that is sound only while decoding is deterministic and nothing a
    decoded message reaches can be changed."""
    rng = random.Random(0x5EA7)
    seen = set()
    for _ in range(3_000):
        data = wire.serialize(CTX, rand_message(rng))
        msg = wire.deserialize(CTX, data)
        seen.add(type(msg))
        _assert_deeply_immutable(msg, type(msg).__name__)
        assert wire.deserialize(CTX, data) == msg
    assert seen == {cls for cls, _ in wire._SPECS}


def test_serializing_one_object_again_returns_its_bytes():
    ctx = wire.WireContext(4)
    msg = wire.FifoEcho(1, 2, b"payload")
    data = wire.serialize(ctx, msg)
    assert wire.serialize(ctx, msg) is data


def test_an_equal_but_distinct_message_is_encoded_again():
    ctx = wire.WireContext(4)
    first = wire.serialize(ctx, wire.FifoEcho(1, 2, b"payload"))
    twin = wire.FifoEcho(1, 2, b"payload")
    again = wire.serialize(ctx, twin)
    assert again == first and again is not first
    assert ctx.last[0] is twin


def test_an_encode_that_raises_leaves_the_memo_as_it_was():
    ctx = wire.WireContext(4)
    msg = wire.FifoEcho(1, 2, b"payload")
    data = wire.serialize(ctx, msg)
    with pytest.raises(ValueError):
        wire.serialize(ctx, wire.Reduction(b"short", b"x"))
    assert wire.serialize(ctx, msg) is data


def _memo_runs():
    """(scenario, seed) of every run the memo soundness test wraps."""
    for name in sorted(CORPUS):
        for seed in range(4):
            yield CORPUS[name](), seed
    yield live_signup_f2(), None
    yield batching_limit(64, 64), None


def test_every_reused_encoding_equals_a_fresh_one(monkeypatch):
    """The serialize memo returns stored bytes for a message object it has
    seen; that is sound only if every message sent is deeply immutable, so
    the stored bytes are still what a fresh encode gives.  Each send record's
    length must also be that of a fresh encode."""
    real = wire.serialize
    fresh_lengths: list = []

    def checked(ctx, msg):
        data = real(ctx, msg)
        _assert_deeply_immutable(msg, type(msg).__name__)
        fresh = real(wire.WireContext(ctx.n_servers), msg)
        assert data == fresh
        fresh_lengths.append(len(fresh))
        return data

    monkeypatch.setattr(wire, "serialize", checked)
    for scenario, seed in _memo_runs():
        fresh_lengths.clear()
        trace = run_scenario(scenario, seed).trace
        send = trace.find("send")
        assert fresh_lengths and fresh_lengths == [
            n for kind, n in zip(trace.kind, trace.bytes_len) if kind == send]


def test_spec_table_matches_the_doc():
    doc = (Path(__file__).parent.parent / "docs" / "wire_format.md").read_text()
    table = doc.split("## Messages", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| (\d+) \| `(\w+)` \|", table, re.MULTILINE)
    assert [(int(tag), name) for tag, name in rows] == [
        (tag, cls.__name__) for tag, (cls, _) in enumerate(wire._SPECS)]


def test_record_rejects_a_field_count_mismatch():
    with pytest.raises(TypeError):
        wire.record(wire.Reduction, wire.DIGEST)
    with pytest.raises(TypeError):
        wire.record(wire.Reduction, wire.DIGEST, wire.MULTISIG, wire.VNAT)


def test_random_bytes_never_crash():
    rng = random.Random(0xDEAD)
    outcomes = {"ok": 0, "err": 0}
    for _ in range(10_000):
        data = rng.randbytes(rng.randint(0, 80))
        try:
            wire.deserialize(CTX, data)
            outcomes["ok"] += 1
        except DecodeError:
            outcomes["err"] += 1
    assert outcomes["err"] > 0  # garbage is rejected, not crashed on


def test_truncations_never_crash():
    rng = random.Random(0xCAFE)
    for _ in range(500):
        data = wire.serialize(CTX, rand_message(rng))
        for cut in range(len(data)):
            with pytest.raises(DecodeError):
                wire.deserialize(CTX, data[:cut])


def _ref_certificate(ref, cert, n_servers):
    ref.write_bytes(cert.msig)
    for o in range(n_servers):
        ref.write_uint(1, 1 if o in cert.signers else 0)


def _ref_blob(ref, data):
    ref.write_varint(len(data) + 1)
    ref.write_bytes(data)


def test_certificate_bitmap_matches_reference():
    rng = random.Random(0xB17)
    for n in (4, 7):
        ctx = wire.WireContext(n)
        for mask in range(1 << n):
            signers = frozenset(o for o in range(n) if mask >> o & 1)
            cert = Certificate(signers, rng.randbytes(crypto.MULTISIG_BYTES))
            root = rng.randbytes(crypto.DIGEST_BYTES)
            witness = RefWriter()
            witness.write_uint(8, 7)
            witness.write_bytes(root)
            _ref_certificate(witness, cert, n)
            # the id's varints leave the assignment's bitmap unaligned
            ident = (rng.randrange(n), rng.randrange(300))
            keycard = rng.randbytes(crypto.PUBKEY_BYTES)
            signature = rng.randbytes(crypto.SIGNATURE_BYTES)
            submission = RefWriter()
            submission.write_uint(8, 0)
            submission.write_varint(ident[0] + 1)
            submission.write_varint(ident[1] + 1)
            submission.write_bytes(keycard)
            _ref_certificate(submission, cert, n)
            _ref_blob(submission, b"ctx")
            _ref_blob(submission, b"message")
            submission.write_bytes(signature)
            for msg, ref in (
                    (wire.Witness(root, cert), witness),
                    (wire.Submission(wire.Assignment(ident, keycard, cert),
                                     b"ctx", b"message", signature),
                     submission)):
                data = wire.serialize(ctx, msg)
                assert data == ref.to_bytes()
                assert wire.deserialize(ctx, data) == msg
                for cut in range(len(data)):
                    with pytest.raises(DecodeError):
                        wire.deserialize(ctx, data[:cut])


def test_empty_exception_commit_shard_constant_size():
    rng = random.Random(1)
    msig = rng.randbytes(crypto.MULTISIG_BYTES)
    sizes = set()
    for _ in (10, 1000):
        root = rng.randbytes(crypto.DIGEST_BYTES)
        sizes.add(len(wire.serialize(CTX, wire.CommitShard(root, (), msig))))
    assert len(sizes) == 1  # independent of the batch size entirely


def test_batch_message_size_bound():
    # 1024 uniform 8-byte payloads, dense ids: within M*(10+64) + 1024 bits
    m = 1024
    ids = [(j % 4, j // 4) for j in range(m)]
    mu = {}
    for d, i in sorted(ids):
        mu.setdefault(d, []).append(i)
    compressed = tuple((d, tuple(sorted(v))) for d, v in sorted(mu.items()))
    payloads = tuple((j.to_bytes(4, "big"), j.to_bytes(4, "big"))
                     for j in range(m))
    data = wire.serialize(CTX, wire.BatchMsg(compressed, payloads))
    assert 8 * len(data) <= m * (10 + 64) + 1024


def test_statements_distinct():
    stmts = {
        wire.stmt_message(b"c", b"m"),
        wire.stmt_reduction(b"r" * 32),
        wire.stmt_witness(b"r" * 32),
        wire.stmt_commit(b"r" * 32, frozenset()),
        wire.stmt_commit(b"r" * 32, frozenset({(0, 1)})),
        wire.stmt_completion(b"r" * 32, frozenset()),
        wire.stmt_assignment((0, 1), b"k" * 48),
    }
    assert len(stmts) == 7


def test_leaf_bytes_injective_on_context_split():
    assert wire.leaf_bytes((0, 1), b"ab", b"c") != wire.leaf_bytes(
        (0, 1), b"a", b"bc")
