"""The compiled codec against the table codec it replaced.

`wire_reference` is the combinator codec `wire` used before its layouts
were compiled (with the zero-width partition fix).  On every message kind
both must give the same bytes, and on those bytes and on their
truncations, bit flips, tag swaps, appended bytes and on random strings
both must decode the same message or both refuse it.  A linearity guard
keeps encode and decode linear in the size of the largest messages.
"""

import dataclasses
import random
import time
from itertools import product

from batchcast import crypto, wire
from batchcast.bits import DecodeError
from batchcast.crypto import MerkleProof
from batchcast.wire import TABLE_PAIRS
import pytest

import wire_reference as reference
from test_wire import rand_message

CTX = wire.WireContext(4)


def outcome(deserialize, data):
    try:
        return deserialize(CTX, data)
    except DecodeError:
        return DecodeError


def assert_same_outcome(data):
    assert outcome(wire.deserialize, data) == outcome(reference.deserialize,
                                                       data), data.hex()


def encode(msg):
    CTX.last = (None, b"")
    return wire.serialize(CTX, msg)


def test_every_kind_encodes_and_decodes_as_the_table_codec_did():
    rng = random.Random(0xE0E0)
    seen = set()
    for _ in range(400):
        msg = rand_message(rng)
        seen.add(type(msg))
        data = encode(msg)
        assert data == reference.serialize(CTX, msg)
        assert wire.deserialize(CTX, data) == msg
        for cut in range(len(data)):
            assert_same_outcome(data[:cut])
        for _ in range(24):
            flipped = bytearray(data)
            bit = rng.randrange(8 * len(data))
            flipped[bit >> 3] ^= 1 << (bit & 7)
            assert_same_outcome(bytes(flipped))
        for tag in range(len(wire.MESSAGE_TYPES) + 1):
            assert_same_outcome(bytes([tag]) + data[1:])
        assert_same_outcome(data + b"\x00")
        assert_same_outcome(data + rng.randbytes(rng.randint(1, 9)))
    assert seen == set(wire.MESSAGE_TYPES)
    for _ in range(5_000):
        assert_same_outcome(rng.randbytes(rng.randint(0, 120)))


def _bit_length(msg) -> int:
    """The message's length in bits before its padding, by the table
    codec's writer."""
    tag = wire.MESSAGE_TYPES.index(type(msg))
    w = reference.BitWriter()
    w.write_uint(8, tag)
    reference._CODECS[tag][0](CTX, w, msg)
    return len(w)


def test_every_decoder_stops_at_end_to_the_bit():
    """Each type's decoder, called as `wire.deserialize` calls it but with
    every stream length `end` from 8 bits up, refuses the stream below the
    message's bit length and decodes the message from there on."""
    rng = random.Random(0xB175)
    largest = {}
    for msg in sorted([rand_message(rng) for _ in range(600)],
                      key=_bit_length):
        largest[type(msg)] = msg
    assert set(largest) == set(wire.MESSAGE_TYPES)
    for msg in largest.values():
        data = encode(msg)
        length = _bit_length(msg)
        assert 8 * len(data) - 8 < length <= 8 * len(data)
        decode = wire._DECODERS[data[0]]
        for end in range(8, 8 * len(data) + 1):
            try:
                decoded = decode(CTX, data, end)
            except (DecodeError, ValueError, IndexError, OverflowError):
                decoded = DecodeError
            assert decoded == (msg if end >= length else DecodeError), (
                type(msg).__name__, end, length)


def test_list_items_that_fill_their_windows_read_back():
    """Each list item is read from a window sized for its largest reads
    from the varint table: TABLE_PAIRS-pair varints and 64-entry Merkle
    paths.  Items that big, and items with longer varints, at every bit
    offset, still encode as the table codec did and read back."""
    rng = random.Random(0x3232)
    root, msig = rng.randbytes(32), rng.randbytes(crypto.MULTISIG_BYTES)
    signature = rng.randbytes(crypto.SIGNATURE_BYTES)
    # vnat(big) is varint(2^k - 1): k pairs; n_servers 4 to 11 leaves each
    # certificate bitmap at another offset
    for k, n_servers in product((TABLE_PAIRS, 32), range(4, 12)):
        big = (1 << k) - 2
        ident = (big, big)
        proof = MerkleProof(big, tuple(
            (rng.randrange(2), rng.randbytes(32)) for _ in range(64)))
        ctx = wire.WireContext(n_servers)
        cert = crypto.Certificate(frozenset({0, n_servers - 1}), msig)
        assignment = wire.Assignment(
            ident, rng.randbytes(crypto.PUBKEY_BYTES), cert)
        conflict = wire.EquivocationProof(root, cert, proof,
                                          rng.randbytes(5))
        patch = (((3, big), ident), cert)
        for msg in [
                wire.BatchAcquired(root, ((3, big), ident)),
                wire.Signatures(root, (assignment,) * 3, msig,
                                ((ident, signature), ((2, big), signature),
                                 ((3, big), signature))),
                wire.CommitShard(root, ((ident, conflict),
                                        ((big, 0), conflict)), msig),
                wire.Commit(root, (patch,) * 3),
                wire.Completion(root, cert, frozenset({ident, (1, big)})),
                wire.Totality(root, (assignment,) * 2, ((0, (1, 2)),),
                              ((b"a", b"bc"), (b"", b"d")), (patch,) * 2)]:
            data = wire.serialize(ctx, msg)
            assert data == reference.serialize(ctx, msg)
            assert wire.deserialize(ctx, data) == msg


def _wrong_widths(rng):
    """Messages with one digest, signature, multi-signature or keycard a
    byte short or long."""
    def resize(data):
        return data[:-1] if rng.random() < 0.5 else data + b"\x00"

    def replaced(msg, **changes):
        return dataclasses.replace(msg, **changes)

    for _ in range(200):
        msg = rand_message(rng)
        if isinstance(msg, wire.Submission):
            yield replaced(msg, signature=resize(msg.signature))
            yield replaced(msg, assignment=replaced(
                msg.assignment, keycard=resize(msg.assignment.keycard)))
            yield replaced(msg, assignment=replaced(
                msg.assignment, certificate=replaced(
                    msg.assignment.certificate,
                    msig=resize(msg.assignment.certificate.msig))))
        elif isinstance(msg, wire.Inclusion) and msg.proof.path:
            (side, sibling), *rest = msg.proof.path
            yield replaced(msg, proof=MerkleProof(
                msg.proof.index, ((side, resize(sibling)), *rest)))
        elif isinstance(msg, wire.Signatures) and msg.stragglers:
            (ident, signature), *rest = msg.stragglers
            yield replaced(msg, stragglers=((ident, resize(signature)),
                                            *rest))
        elif isinstance(msg, (wire.Reduction, wire.WitnessShard,
                              wire.CompletionShard)):
            yield replaced(msg, root=resize(msg.root))
            field = "msig" if isinstance(msg, wire.Reduction) else "shard"
            yield replaced(msg, **{field: resize(getattr(msg, field))})
        elif isinstance(msg, wire.AssignShard):
            yield replaced(msg, shard=resize(msg.shard))
        elif hasattr(msg, "root"):
            yield replaced(msg, root=resize(msg.root))


def test_wrong_width_fields_raise_value_error_in_both():
    kinds = set()
    for msg in _wrong_widths(random.Random(0xBAD)):
        kinds.add(type(msg))
        with pytest.raises(ValueError):
            reference.serialize(CTX, msg)
        with pytest.raises(ValueError):
            encode(msg)
    assert len(kinds) >= 15


def _batch(m):
    ids = [(j % 4, j // 4) for j in range(m)]
    groups = {}
    for domain, index in ids:
        groups.setdefault(domain, []).append(index)
    return wire.BatchMsg(
        tuple((d, tuple(ix)) for d, ix in sorted(groups.items())),
        tuple((j.to_bytes(4, "big"), (j ^ 0xFFFF).to_bytes(4, "big"))
              for j in range(m)))


def _totality(n):
    rng = random.Random(n)
    assignments = tuple(
        wire.Assignment((j % 4, j), rng.randbytes(crypto.PUBKEY_BYTES),
                        crypto.Certificate(frozenset({0, 1, 2}),
                                           rng.randbytes(48)))
        for j in range(n))
    batch = _batch(8)
    return wire.Totality(rng.randbytes(32), assignments,
                         batch.compressed_ids, batch.payloads, ())


def _round_trip_seconds(msg):
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        assert wire.deserialize(CTX, encode(msg)) == msg
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("build,small,large", [
    (_batch, 1024, 16384), (_totality, 256, 4096)],
    ids=["BatchMsg", "Totality"])
def test_encode_and_decode_are_linear_in_message_size(build, small, large):
    """At 16 times the size each takes less than 48 times as long; a
    quadratic codec would take about 256 times as long."""
    ratio = (_round_trip_seconds(build(large))
             / _round_trip_seconds(build(small)))
    assert ratio < 48, ratio
