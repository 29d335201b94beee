"""Integer, varint, partition, Merkle path and payload layouts: worked
examples and round-trips through the compiled codec, checked bit by bit
against a reference that writes one bit at a time.

Each layout is compiled into a probe message type, a dataclass whose
fields are annotated with the layouts, exactly as `wire` compiles its own
messages (`wire._compile`), so these tests run the same
generated code.  A probe's decoder takes the stream's length in bits, so a
stream can be cut at any bit, not just at a byte boundary.
"""

import random
from dataclasses import make_dataclass

from batchcast import crypto, wire
from batchcast.bits import DecodeError
from batchcast.crypto import Certificate, MerkleProof
from batchcast.protocol import compress_ids, expand_ids
from batchcast.wire import TABLE_PAIRS
import pytest

TAG = 255  # probes are never dispatched by tag
CTX = wire.WireContext(4)
MSIG = bytes(range(crypto.MULTISIG_BYTES))
_PROBES: dict = {}


def probe(*layouts):
    """(message class, encode, decode) of a probe message whose fields have
    these layouts."""
    if layouts not in _PROBES:
        cls = make_dataclass(f"Probe{len(_PROBES)}",
                             [(f"f{i}", layout)
                              for i, layout in enumerate(layouts)],
                             frozen=True)
        _PROBES[layouts] = (cls, *wire._compile(TAG, cls))
    return _PROBES[layouts]


def stream_bits(data):
    """The bits of a byte string, in stream order."""
    n = int.from_bytes(data, "little")
    return tuple(n >> i & 1 for i in range(8 * len(data)))


def field_bits(layout, value, ctx=CTX):
    """The bits a field takes: the probe's stream after the tag, up to the
    trailing vnat(0), whose data bit is the stream's last 1."""
    cls, encode, _ = probe(layout, wire.VNAT)
    data = encode(ctx, cls(value, 0))
    return stream_bits(data)[8:int.from_bytes(data, "little").bit_length()
                             - 2]


def read_bits(layout, bits, ctx=CTX):
    """Decode a one-field probe from a stream of exactly these bits after
    the tag."""
    ref = RefWriter()
    ref.write_uint(8, TAG)
    ref.bits.extend(bits)
    _, _, decode = probe(layout)
    return decode(ctx, ref.to_bytes(), len(ref.bits)).f0


def roundtrip_with_tail(layout, value, tail, ctx=CTX):
    """Encode the field, then a vnat tail; both must read back."""
    cls, encode, decode = probe(layout, wire.VNAT)
    data = encode(ctx, cls(value, tail))
    decoded = decode(ctx, data, 8 * len(data))
    assert decoded.f1 == tail
    return decoded.f0


def partition_roundtrip(mu, domains):
    """(decoded, encoded length in bits) of the partition mu over the
    domains 0 .. len(domains) - 1."""
    assert domains == list(range(len(domains)))
    ctx = wire.WireContext(len(domains))
    compressed = tuple((d, tuple(sorted(mu[d]))) for d in sorted(mu))
    decoded = roundtrip_with_tail(wire.PARTITION, compressed, 0, ctx)
    return ({d: set(ix) for d, ix in decoded},
            len(field_bits(wire.PARTITION, compressed, ctx)))


def bitmap(width, n):
    """A certificate whose n_servers = width bitmap is uint(width, n)."""
    return Certificate(frozenset(o for o in range(width) if n >> o & 1),
                       MSIG)


def test_int_repr_examples():
    # floor(5 / 2^i) mod 2 for i = 0, 1, 2: a signer bitmap is uint(N, ...)
    def bits(width, n):
        return field_bits(wire.CERTIFICATE, bitmap(width, n),
                          wire.WireContext(width))[8 * len(MSIG):]
    assert bits(3, 5) == (1, 0, 1)
    assert bits(1, 0) == (0,)
    assert bits(4, 5) == (1, 0, 1, 0)
    # the tag is uint(8, tag)
    data = wire.serialize(CTX, wire.Ranked(0))
    assert stream_bits(data)[:8] == (0, 0, 0, 0, 1, 0, 0, 0)  # 16


def test_uint_then_tail_reads_back():
    ctx = wire.WireContext(3)
    cls, encode, decode = probe(wire.CERTIFICATE, wire.VNAT)
    data = encode(ctx, cls(bitmap(3, 5), 0))
    bits = stream_bits(data)[8 + 8 * len(MSIG):]
    assert bits[:5] == (1, 0, 1, 0, 1)  # the bitmap, then vnat(0)
    end = 8 + 8 * len(MSIG) + 5
    assert decode(ctx, data, end) == cls(bitmap(3, 5), 0)
    assert not any(bits[5:])  # padding


def test_uint_rejects_out_of_range():
    cls, encode, decode = probe(wire.DIGEST)
    with pytest.raises(ValueError):
        encode(CTX, cls(bytes(crypto.DIGEST_BYTES + 1)))
    with pytest.raises(ValueError):
        probe(wire.VNAT)[1](CTX, probe(wire.VNAT)[0](-1))
    data = encode(CTX, cls(bytes(crypto.DIGEST_BYTES)))
    with pytest.raises(DecodeError):
        decode(CTX, data, len(data) * 8 - 1)


def test_varint_examples():
    # vnat(n) is varint(n + 1)
    assert field_bits(wire.VNAT, 0) == (0, 1)
    assert field_bits(wire.VNAT, 1) == (1, 0, 0, 1)
    assert read_bits(wire.VNAT, (0, 1, 1, 1)) == 0  # the rest is not read


def test_varint_length_formula():
    for n in (1, 2, 3, 7, 8, 1023, 1024, 10**9):
        assert len(field_bits(wire.VNAT, n - 1)) == 2 * n.bit_length()


def test_varint_rejects_unparseable():
    cls, encode, _ = probe(wire.VNAT)
    with pytest.raises(ValueError):
        encode(CTX, cls(-1))
    with pytest.raises(DecodeError):
        read_bits(wire.VNAT, (1, 1, 1, 0))  # every even position continues
    with pytest.raises(DecodeError, match="bad vnat"):
        read_bits(wire.VNAT, (1, 0, 0, 0))  # varint 0


def test_roundtrips_randomized():
    rng = random.Random(0xC0DEC)
    for _ in range(2000):
        width = rng.randint(1, 40)
        n = rng.randrange(2 ** width)
        tail = rng.randrange(1 << rng.randint(0, 12))
        cert = bitmap(width, n)
        assert roundtrip_with_tail(wire.CERTIFICATE, cert, tail,
                                   wire.WireContext(width)) == cert
        m = rng.randint(1, 2 ** 40)
        assert roundtrip_with_tail(wire.VNAT, m - 1, tail) == m - 1


def random_partition(rng, domains, max_index, nonempty=True):
    mu = {}
    for d in domains:
        if rng.random() < 0.7:
            k = rng.randint(0 if not nonempty else 1, 6)
            if k:
                mu[d] = set(rng.sample(range(max_index + 1),
                                       min(k, max_index + 1)))
    if nonempty and not any(mu.values()):
        mu[domains[0]] = {rng.randint(0, max_index)}
    return {d: v for d, v in mu.items() if v}


def partition_size(mu):
    return sum(len(v) for v in mu.values())


def partition_encoded_len(size: int, max_index: int, n_domains: int) -> int:
    """The bits `wire.PARTITION` takes for `size` ids over `n_domains`
    domains whose largest index is max_index >= 1: the closed form the
    round-trips check the codec against."""
    w = max_index.bit_length()
    d = size.bit_length()
    return size * w + n_domains * d + 2 * w.bit_length() + 2 * d.bit_length()


def test_partition_roundtrip_randomized():
    rng = random.Random(0xBEEF)
    for _ in range(500):
        domains = list(range(rng.randint(1, 6)))
        mu = random_partition(rng, domains, rng.randint(0, 4000))
        assert partition_roundtrip(mu, domains)[0] == mu


def test_partition_exact_length_example():
    # |X| = 4, |mu| = 8, max mu = 1023: 80 + 16 + 8 + 6 = 110 bits
    domains = [0, 1, 2, 3]
    mu = {0: {5, 1023}, 1: {0, 7}, 2: {3, 9}, 3: {2, 500}}
    assert partition_roundtrip(mu, domains) == (mu, 110)
    assert partition_encoded_len(8, 1023, 4) == 110


def test_partition_length_matches_closed_formula():
    rng = random.Random(7)
    for _ in range(300):
        domains = list(range(rng.randint(1, 5)))
        mu = random_partition(rng, domains, rng.randint(1, 900))
        if max(max(v) for v in mu.values()) == 0:
            continue  # width clamp case, below
        expected = partition_encoded_len(
            partition_size(mu), max(max(v) for v in mu.values()), len(domains))
        assert partition_roundtrip(mu, domains) == (mu, expected)


def test_partition_minimal_case_roundtrips():
    # a single index 0 forces the width clamp (max mu = 0)
    domains = [0]
    mu = {0: {0}}
    assert partition_roundtrip(mu, domains) == (mu, 2 + 2 + 1 + 1)


def test_partition_amortized_bits_per_element():
    # 4096 indices below 1024 over 4 domains: about 10 bits per element
    domains = [0, 1, 2, 3]
    per_domain = 1024
    mu = {d: set(range(per_domain)) for d in domains}
    decoded, nbits = partition_roundtrip(mu, domains)
    assert nbits / partition_size(mu) <= 10 + 0.1
    assert decoded == mu


def test_partition_rejects_empty():
    cls, encode, _ = probe(wire.PARTITION)
    with pytest.raises(ValueError):
        encode(wire.WireContext(2), cls(()))
    with pytest.raises(ValueError):
        encode(wire.WireContext(2), cls(((0, ()), (1, ()))))


@pytest.mark.parametrize("mu", [
    ((2, (0,)), (1, (3,))),
    ((1, (3, 0)),),
    ((7, (0,)),),
    ((1, (0,)), (1, (3,))),
    ((1, (3, 3)),),
    ((0, ()), (1, (3,))),
    ((-1, (0,)),),
], ids=["domains_descend", "indices_descend", "domain_out_of_range",
        "domain_repeated", "index_repeated", "empty_group", "negative_domain"])
def test_partition_rejects_what_would_decode_to_other_ids(mu):
    """Only the form a decoder yields may be encoded: any other is written
    as bytes that decode to other ids, or to none.  These shapes reach both
    encoders that write a partition."""
    ctx = wire.WireContext(4)
    payloads = ((b"", b""),) * sum(len(ix) for _, ix in mu)
    with pytest.raises(ValueError):
        wire.serialize(ctx, wire.BatchMsg(mu, payloads))
    with pytest.raises(ValueError):
        wire.serialize(ctx, wire.Totality(bytes(crypto.DIGEST_BYTES), (), mu,
                                          payloads, ()))


def test_partition_decode_rejects_malformed():
    ctx = wire.WireContext(1)
    with pytest.raises(DecodeError):
        read_bits(wire.PARTITION, (1, 1), ctx)  # cut inside varint(d)
    # d = 1, w = 1, count 0: no index at all
    with pytest.raises(DecodeError, match="empty partition"):
        read_bits(wire.PARTITION, (0, 1, 0, 1, 0), ctx)
    # d = 1, w = 1, count 1, index 0 (the minimal case), then one bit short
    assert read_bits(wire.PARTITION, (0, 1, 0, 1, 1, 0), ctx) == ((0, (0,)),)
    with pytest.raises(DecodeError):
        read_bits(wire.PARTITION, (0, 1, 0, 1, 1), ctx)
    # two copies of one index in a group
    with pytest.raises(DecodeError, match="repeated index"):
        read_bits(wire.PARTITION, (1, 0, 0, 1, 0, 1, 0, 1, 1, 1), ctx)


def _zero_width_partition(d, counts):
    """varint(d), the pair (0, 0) where varint(w) belongs, then the counts
    as d-bit ints, last domain first: the index width is 0."""
    ref = RefWriter()
    ref.write_varint(d)
    ref.write_uint(2, 0)
    for count in reversed(counts):
        ref.write_uint(d, count)
    return ref.bits


def test_a_zero_width_partition_is_rejected():
    # counts (1, 0, 0, 0) with width 0 would read one index, 0, from no
    # bits: a second encoding of the partition {0: {0}}
    ctx = wire.WireContext(4)
    with pytest.raises(DecodeError, match="width 0"):
        read_bits(wire.PARTITION, _zero_width_partition(1, (1, 0, 0, 0)), ctx)
    d_zero = RefWriter()
    d_zero.write_uint(2, 0)
    d_zero.write_varint(1)
    with pytest.raises(DecodeError, match="width 0"):
        read_bits(wire.PARTITION, d_zero.bits, ctx)


def test_a_zero_width_batch_fails_before_reading_its_indices():
    """Tag 3, d = 18, width 0 and four all-ones counts: 4 * (2^18 - 1)
    indices of width 0 would fit in no bits at all."""
    ref = RefWriter()
    ref.write_uint(8, 3)
    ref.bits.extend(_zero_width_partition(18, [(1 << 18) - 1] * 4))
    data = ref.to_bytes()
    assert len(data) == 12
    with pytest.raises(DecodeError, match="width"):
        wire.deserialize(wire.WireContext(4), data)
    # with width 1 the indices are counted against the bits that remain
    ref = RefWriter()
    ref.write_uint(8, 3)
    ref.write_varint(18)
    ref.write_varint(1)
    for _ in range(4):
        ref.write_uint(18, (1 << 18) - 1)
    with pytest.raises(DecodeError, match="width 1 overruns"):
        wire.deserialize(wire.WireContext(4), ref.to_bytes())


def test_two_partitions_and_two_payload_lists_in_one_message():
    """Each decoded partition and payload list keeps its own value when a
    message has two of them, uniform and not."""
    cls, encode, decode = probe(wire.PARTITION, wire.PAYLOADS,
                                wire.PARTITION, wire.PAYLOADS)
    msg = cls(((0, (1, 2)),), ((b"a", b"bc"), (b"d", b"ef")),
              ((1, (5,)), (3, (0, 7))), ((b"", b"g"), (b"hi", b"")))
    data = encode(CTX, msg)
    assert decode(CTX, data, 8 * len(data)) == msg


def test_compress_expand_examples():
    ids = [(0, 0), (0, 2), (1, 1)]
    assert compress_ids(ids) == ((0, (0, 2)), (1, (1,)))
    assert expand_ids(((0, (0, 2)), (1, (1,)))) == ids
    assert expand_ids(((1, (1,)), (0, (2, 0)))) == [(1, 1), (0, 2), (0, 0)]
    assert compress_ids([]) == () and expand_ids(()) == []


def test_compress_roundtrip_through_partition():
    # absent domains occupy zero-length slots in the shared enumeration
    ctx = wire.WireContext(4)
    ids = [(0, 4), (2, 1), (2, 9)]
    compressed = compress_ids(ids)
    assert roundtrip_with_tail(wire.PARTITION, compressed, 0, ctx) == \
        compressed
    assert expand_ids(compressed) == ids


def test_compress_expand_randomized():
    """Over sorted ids, compress_ids gives the form a decoded partition
    takes, and expand_ids inverts it."""
    rng = random.Random(5)
    for _ in range(200):
        ids = sorted({(rng.randint(0, 3), rng.randint(0, 999))
                      for _ in range(rng.randint(1, 50))})
        compressed = compress_ids(ids)
        assert roundtrip_with_tail(wire.PARTITION, compressed, 0) == \
            compressed
        assert expand_ids(compressed) == ids


def test_writer_reader_agree_with_bits_api():
    """A bitmap, two bytes and a vnat land where the bit-level definitions
    put them, read back, and a stream one bit short is refused."""
    ctx = wire.WireContext(3)
    cls, encode, decode = probe(wire.CERTIFICATE, wire.BLOB, wire.VNAT)
    msg = cls(bitmap(3, 5), b"\xff\x01", 1)
    ref = RefWriter()
    ref.write_uint(8, TAG)
    ref.write_bytes(MSIG)
    ref.write_uint(3, 5)
    ref.write_varint(3)
    ref.write_bytes(b"\xff\x01")
    ref.write_varint(2)
    data = encode(ctx, msg)
    assert data == ref.to_bytes()
    assert decode(ctx, data, len(ref.bits)) == msg
    with pytest.raises(DecodeError):
        decode(ctx, data, len(ref.bits) - 1)


# ---------------------------------------------------------------------------
# equivalence with a bit-by-bit reference codec
#
# The compiled codec moves whole fields at a time; the reference below moves
# one bit at a time, straight from the definitions in the `bits` module
# docstring, and the packed bytes must agree exactly.

class RefWriter:
    """One list entry per bit; packs LSB-first within each byte."""

    def __init__(self):
        self.bits = []

    def write_uint(self, width, n):
        if n < 0 or n.bit_length() > width:
            raise ValueError(f"{n} does not fit in {width} bits")
        self.bits.extend((n >> i) & 1 for i in range(width))

    def write_varint(self, n):
        data_len = n.bit_length()
        for i in range(data_len):
            self.bits.append(1 if i < data_len - 1 else 0)
            self.bits.append((n >> i) & 1)

    def write_bytes(self, data):
        for byte in data:
            self.write_uint(8, byte)

    def to_bytes(self):
        out = bytearray((len(self.bits) + 7) // 8)
        for i, b in enumerate(self.bits):
            out[i >> 3] |= b << (i & 7)
        return bytes(out)


class RefReader:
    def __init__(self, data, bit_len):
        self.bits = [(data[i >> 3] >> (i & 7)) & 1 for i in range(bit_len)]
        self.pos = 0

    def read_bit(self):
        if self.pos >= len(self.bits):
            raise DecodeError("bit stream exhausted")
        self.pos += 1
        return self.bits[self.pos - 1]

    def read_uint(self, width):
        return sum(self.read_bit() << i for i in range(width))

    def read_varint(self):
        n = 0
        i = 0
        while True:
            cont = self.read_bit()
            n |= self.read_bit() << i
            i += 1
            if cont == 0:
                return n


def write_ref_proof(ref, proof):
    ref.write_varint(proof.index + 1)
    ref.write_varint(len(proof.path) + 1)
    for side, sibling in proof.path:
        ref.write_uint(1, side)
        ref.write_bytes(sibling)


def offset_prefix(offset):
    """A Merkle proof that, after the 8-bit tag, ends `offset` bits past a
    byte boundary: a path entry takes 257 bits, each varint an even
    number."""
    for length in (0, 1):
        for index in range(16):
            bits = (8 + 2 * (index + 1).bit_length()
                    + 2 * (length + 1).bit_length() + 257 * length)
            if bits % 8 == offset:
                return MerkleProof(index, ((1, bytes(range(32))),) * length)
    raise AssertionError(offset)


def field_both_ways(layout, value, offset, write_ref, ctx=CTX, cuts=True):
    """The field at a bit offset, then vnat(0): the probe's bytes equal the
    reference's, the reference's stream reads back, and a cut raises (every
    cut in the first and last 64 bits, every 61st in between)."""
    cls, encode, decode = probe(wire.PROOF, layout, wire.VNAT)
    prefix = offset_prefix(offset)
    ref = RefWriter()
    ref.write_uint(8, TAG)
    write_ref_proof(ref, prefix)
    start = len(ref.bits)
    assert start % 8 == offset
    write_ref(ref)
    ref.write_varint(1)
    data = ref.to_bytes()
    msg = cls(prefix, value, 0)
    assert encode(ctx, msg) == data
    assert decode(ctx, data, len(ref.bits)) == msg
    if not cuts:
        return
    end = len(ref.bits)
    for cut in range(start, end):
        if 64 <= cut - start and end - cut > 64 and cut % 61:
            continue
        with pytest.raises(DecodeError):
            decode(ctx, data, cut)


def test_write_uint_matches_reference_at_every_offset():
    """A signer bitmap is uint(N, ...) at whatever offset it falls on."""
    rng = random.Random(0x0FF5E7)
    for width in range(131):
        ctx = wire.WireContext(width)
        for offset in range(8):
            for n in {0, (1 << width) - 1, rng.getrandbits(width)}:
                def write_ref(ref):
                    ref.write_bytes(MSIG)
                    ref.write_uint(width, n)
                field_both_ways(wire.CERTIFICATE, bitmap(width, n), offset,
                                write_ref, ctx, cuts=width % 16 == 0)


def test_varint_matches_reference():
    rng = random.Random(0x7A41)
    values = {1}
    for k in range(1, 201):
        values.update((2 ** k - 1, 2 ** k, 2 ** k + 1))
    cases = sorted(values)
    cases += [rng.getrandbits(rng.randint(1, 80)) + 1 for _ in range(10_000)]
    cls, encode, decode = probe(wire.PROOF, wire.VNAT)
    for n in cases:
        prefix = offset_prefix(rng.randrange(8))
        ref = RefWriter()
        ref.write_uint(8, TAG)
        write_ref_proof(ref, prefix)
        start = len(ref.bits)
        ref.write_varint(n)
        data = encode(CTX, cls(prefix, n - 1))
        assert data == ref.to_bytes()
        assert decode(CTX, data, len(ref.bits)) == cls(prefix, n - 1)
        rr = RefReader(data, len(ref.bits))
        rr.read_uint(start)
        assert rr.read_varint() == n


def test_truncated_fields_raise_decode_error_at_every_point():
    rng = random.Random(0x7E11)
    cls, encode, decode = probe(wire.VNAT)
    for n in [1, 2, 3, 255, 256, 2 ** 64 + 1, rng.getrandbits(150) + 1]:
        data = encode(CTX, cls(n - 1))
        length = 8 + 2 * n.bit_length()
        for cut in range(8, length):
            with pytest.raises(DecodeError):
                decode(CTX, data, cut)
            with pytest.raises(DecodeError):
                rr = RefReader(data, cut)
                rr.read_uint(8)
                rr.read_varint()
        assert decode(CTX, data, length) == cls(n - 1)
    for offset in range(8):
        for width in (1, 7, 8, 9, 64, 130):
            n = rng.getrandbits(width)

            def write_ref(ref):
                ref.write_bytes(MSIG)
                ref.write_uint(width, n)
            # every cut of the bitmap and of the field before it
            field_both_ways(wire.CERTIFICATE, bitmap(width, n), offset,
                            write_ref, wire.WireContext(width))


def test_varints_across_the_read_window_at_every_offset():
    """Varints of one window of pairs and beyond, at the top level and as
    list items; the stream ends exactly at the varint's last pair, and
    every shorter stream is truncated."""
    pairs = 32
    rng = random.Random(0x3141)
    for k in (TABLE_PAIRS, TABLE_PAIRS + 1, pairs - 1, pairs, pairs + 1,
              2 * pairs, 2 * pairs + 1, 97):
        for n in (1 << (k - 1), (1 << k) - 1, rng.getrandbits(k) | 1 << k - 1):
            for offset in range(8):
                def write_ref(ref):
                    ref.write_varint(n)
                field_both_ways(wire.VNAT, n - 1, offset, write_ref)

                def write_list_ref(ref):
                    ref.write_varint(3)
                    for value in (n, 1):
                        ref.write_varint(value)
                field_both_ways(wire._Items(wire.VNAT), (n - 1, 0), offset,
                                write_list_ref)


def test_merkle_path_matches_reference_at_every_offset():
    rng = random.Random(0x9A7)
    for length in (0, 1, 11, 64):
        for offset in range(8):
            proof = MerkleProof(rng.randrange(1 << 12), tuple(
                (rng.randrange(2), rng.randbytes(crypto.DIGEST_BYTES))
                for _ in range(length)))
            field_both_ways(wire.PROOF, proof, offset,
                            lambda ref: write_ref_proof(ref, proof))


def test_merkle_path_limits():
    rng = random.Random(0x9A8)
    sibling = rng.randbytes(crypto.DIGEST_BYTES)
    cls, encode, decode = probe(wire.PROOF)
    with pytest.raises(ValueError):
        encode(CTX, cls(MerkleProof(0, ((0, sibling[1:]),))))
    data = encode(CTX, cls(MerkleProof(0, ((1, sibling),) * 65)))
    with pytest.raises(DecodeError, match="count too large"):
        decode(CTX, data, 8 * len(data))


def test_uniform_payloads_match_reference_at_every_offset():
    rng = random.Random(0x9A9)
    cases = [
        (),
        ((b"", b""),) * 5,
        tuple((b"", rng.randbytes(3)) for _ in range(4)),
        tuple((rng.randbytes(4), b"") for _ in range(4)),
        ((rng.randbytes(4), rng.randbytes(4)),),
        tuple((rng.randbytes(4), rng.randbytes(4)) for _ in range(9)),
        tuple((rng.randbytes(1), rng.randbytes(7)) for _ in range(33)),
    ]
    for payloads in cases:
        for offset in range(8):
            def write_ref(ref):
                ref.write_varint(len(payloads) + 1)
                ref.write_uint(1, 1 if payloads else 0)
                if payloads:
                    ref.write_varint(len(payloads[0][0]) + 1)
                    ref.write_varint(len(payloads[0][1]) + 1)
                    for context, message in payloads:
                        ref.write_bytes(context)
                        ref.write_bytes(message)
            field_both_ways(wire.PAYLOADS, payloads, offset, write_ref)


def test_uniform_payloads_read_an_empty_declared_list():
    # the writer marks an empty list non-uniform; a uniform one still reads
    for clen, mlen in ((0, 0), (4, 4)):
        ref = RefWriter()
        ref.write_varint(1)
        ref.write_uint(1, 1)
        ref.write_varint(clen + 1)
        ref.write_varint(mlen + 1)
        assert read_bits(wire.PAYLOADS, ref.bits) == ()
