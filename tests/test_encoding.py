"""Integer, varint and partition codecs: worked examples and round-trips."""

import random

from batchcast import crypto, wire
from batchcast.bits import BitReader, BitWriter, DecodeError
from batchcast.crypto import MerkleProof
from batchcast.encoding import (_WINDOW, compress_ids, expand_ids,
                                partition_encoded_len, partition_size,
                                read_partition, read_varint, write_partition,
                                write_varint)
import pytest


def bits_of(w):
    """The bits a writer holds, in stream order."""
    n = int.from_bytes(w.to_bytes(), "little")
    return tuple(n >> i & 1 for i in range(len(w)))


def reader_of(bits):
    """A reader over the given bits, packed by the bit-by-bit reference."""
    ref = RefWriter()
    ref.bits = list(bits)
    return BitReader(ref.to_bytes(), len(ref.bits))


def uint_bits(width, n):
    w = BitWriter()
    w.write_uint(width, n)
    return bits_of(w)


def varint_bits(n):
    w = BitWriter()
    write_varint(w, n)
    return bits_of(w)


def roundtrip_with_tail(write, read, tail):
    """Write a field then the tail bits; the field must read back first and
    leave exactly the tail."""
    w = BitWriter()
    write(w)
    for b in tail:
        w.write_bit(b)
    r = BitReader(w.to_bytes(), len(w))
    value = read(r)
    assert [r.read_bit() for _ in tail] == tail
    assert r.remaining == 0
    return value


def partition_roundtrip(mu, domains):
    """(decoded, encoded length in bits); decoding consumes every bit."""
    w = BitWriter()
    write_partition(w, mu, domains)
    r = BitReader(w.to_bytes(), len(w))
    decoded = read_partition(r, domains)
    assert r.remaining == 0
    return decoded, len(w)


def test_int_repr_examples():
    # floor(5 / 2^i) mod 2 for i = 0, 1, 2
    assert uint_bits(3, 5) == (1, 0, 1)
    assert uint_bits(1, 0) == (0,)
    assert uint_bits(4, 5) == (1, 0, 1, 0)


def test_uint_then_tail_reads_back():
    w = BitWriter()
    w.write_uint(3, 5)
    w.write_bit(0)
    assert bits_of(w) == (1, 0, 1, 0)
    r = reader_of((1, 0, 1, 0))
    assert r.read_uint(3) == 5
    assert r.read_bit() == 0 and r.remaining == 0
    w = BitWriter()
    w.write_uint(1, 0)
    assert bits_of(w) == (0,)


def test_uint_rejects_out_of_range():
    with pytest.raises(ValueError):
        BitWriter().write_uint(3, 8)
    with pytest.raises(DecodeError):
        reader_of((1, 0)).read_uint(5)


def test_varint_examples():
    assert varint_bits(1) == (0, 1)
    assert varint_bits(2) == (1, 0, 0, 1)
    r = reader_of((0, 1, 1, 1))
    assert read_varint(r) == 1
    assert (r.read_bit(), r.read_bit()) == (1, 1) and r.remaining == 0


def test_varint_length_formula():
    for n in (1, 2, 3, 7, 8, 1023, 1024, 10**9):
        assert len(varint_bits(n)) == 2 * (n).bit_length()


def test_varint_rejects_unparseable():
    with pytest.raises(ValueError):
        write_varint(BitWriter(), 0)
    with pytest.raises(DecodeError):
        read_varint(reader_of((1, 1, 1, 0)))  # every even position continues


def test_roundtrips_randomized():
    rng = random.Random(0xC0DEC)
    for _ in range(2000):
        width = rng.randint(1, 40)
        n = rng.randrange(2 ** width)
        tail = [rng.randrange(2) for _ in range(rng.randint(0, 12))]
        assert roundtrip_with_tail(lambda w: w.write_uint(width, n),
                                   lambda r: r.read_uint(width), tail) == n
        m = rng.randint(1, 2 ** 40)
        assert roundtrip_with_tail(lambda w: write_varint(w, m), read_varint,
                                   tail) == m


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
    assert partition_roundtrip(mu, domains)[0] == mu


def test_partition_amortized_bits_per_element():
    # 4096 indices below 1024 over 4 domains: about 10 bits per element
    rng = random.Random(99)
    domains = [0, 1, 2, 3]
    per_domain = 1024
    mu = {d: set(range(per_domain)) for d in domains}
    decoded, nbits = partition_roundtrip(mu, domains)
    assert nbits / partition_size(mu) <= 10 + 0.1
    assert decoded == mu


def test_partition_rejects_empty():
    with pytest.raises(ValueError):
        write_partition(BitWriter(), {}, [0, 1])


def test_partition_decode_rejects_malformed():
    with pytest.raises(DecodeError):
        read_partition(reader_of((1, 1)), [0])


def test_compress_expand_examples():
    ids = [(0, 0), (0, 2), (1, 1)]
    assert compress_ids(ids) == {0: {0, 2}, 1: {1}}
    assert expand_ids({1: {1}, 0: {0, 2}}) == ids
    assert expand_ids(compress_ids(ids)) == ids


def test_compress_roundtrip_through_partition():
    # absent domains occupy zero-length slots in the shared enumeration
    domains = [0, 1, 2, 3]
    ids = [(0, 4), (2, 1), (2, 9)]
    mu = compress_ids(ids)
    assert expand_ids(partition_roundtrip(mu, domains)[0]) == ids


def test_compress_expand_randomized():
    rng = random.Random(5)
    for _ in range(200):
        ids = sorted({(rng.randint(0, 3), rng.randint(0, 999))
                      for _ in range(rng.randint(1, 50))})
        assert expand_ids(compress_ids(ids)) == ids


def test_writer_reader_agree_with_bits_api():
    w = BitWriter()
    w.write_uint(3, 5)
    w.write_bytes(b"\xff\x01")
    w.write_bit(1)
    r = BitReader(w.to_bytes(), len(w))
    assert r.read_uint(3) == 5
    assert r.read_bytes(2) == b"\xff\x01"
    assert r.read_bit() == 1
    assert r.remaining == 0
    with pytest.raises(DecodeError):
        r.read_bit()


# ---------------------------------------------------------------------------
# equivalence with a bit-by-bit reference codec
#
# BitWriter/BitReader and the varint codec move whole fields at a time; the
# reference below moves one bit at a time, straight from the definitions in
# the encoding module docstring, and the packed bytes must agree exactly.

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


def _both_writers(prefix_bits):
    w, ref = BitWriter(), RefWriter()
    for b in prefix_bits:
        w.write_bit(b)
        ref.write_uint(1, b)
    return w, ref


def test_write_uint_matches_reference_at_every_offset():
    rng = random.Random(0x0FF5E7)
    for offset in range(8):
        for width in range(131):
            for n in {0, (1 << width) - 1, rng.getrandbits(width)}:
                prefix = [rng.getrandbits(1) for _ in range(offset)]
                w, ref = _both_writers(prefix)
                w.write_uint(width, n)
                ref.write_uint(width, n)
                w.write_bit(1)  # the next write lands after the field
                ref.write_uint(1, 1)
                assert (w.to_bytes(), len(w)) == (ref.to_bytes(),
                                                  len(ref.bits))
                r = BitReader(w.to_bytes(), len(w))
                rr = RefReader(ref.to_bytes(), len(ref.bits))
                assert r.read_uint(offset) == rr.read_uint(offset)
                assert r.read_uint(width) == rr.read_uint(width) == n
                assert r.read_bit() == 1


def test_varint_matches_reference():
    rng = random.Random(0x7A41)
    values = {1}
    for k in range(1, 201):
        values.update((2 ** k - 1, 2 ** k, 2 ** k + 1))
    cases = sorted(values)
    cases += [rng.getrandbits(rng.randint(1, 80)) + 1 for _ in range(10_000)]
    for n in cases:
        prefix = [rng.getrandbits(1) for _ in range(rng.randrange(8))]
        w, ref = _both_writers(prefix)
        write_varint(w, n)
        ref.write_varint(n)
        assert (w.to_bytes(), len(w)) == (ref.to_bytes(), len(ref.bits))
        r = BitReader(w.to_bytes(), len(w))
        rr = RefReader(ref.to_bytes(), len(ref.bits))
        r.read_uint(len(prefix))
        rr.read_uint(len(prefix))
        assert read_varint(r) == rr.read_varint() == n
        assert r.remaining == 0


def test_truncated_fields_raise_decode_error_at_every_point():
    rng = random.Random(0x7E11)
    for n in [1, 2, 3, 255, 256, 2 ** 64 + 1, rng.getrandbits(150) + 1]:
        w = BitWriter()
        write_varint(w, n)
        data = w.to_bytes()
        for cut in range(len(w)):
            with pytest.raises(DecodeError):
                read_varint(BitReader(data, cut))
            with pytest.raises(DecodeError):
                RefReader(data, cut).read_varint()
    for offset in range(8):
        for width in (1, 7, 8, 9, 64, 130):
            w = BitWriter()
            w.write_uint(offset, 0)
            w.write_uint(width, rng.getrandbits(width))
            data = w.to_bytes()
            for cut in range(offset + width):
                r = BitReader(data, cut)
                with pytest.raises(DecodeError):
                    r.read_uint(offset)
                    r.read_uint(width)


def test_varints_across_the_read_window_at_every_offset():
    """Varints of one window of pairs and beyond; the stream ends exactly at
    the varint's last pair, and every shorter stream is truncated."""
    pairs = _WINDOW // 2
    rng = random.Random(0x3141)
    for k in (pairs - 1, pairs, pairs + 1, 2 * pairs, 2 * pairs + 1, 97):
        for n in (1 << (k - 1), (1 << k) - 1, rng.getrandbits(k) | 1 << k - 1):
            for offset in range(8):
                w, ref = _both_writers([1] * offset)
                write_varint(w, n)
                ref.write_varint(n)
                data = w.to_bytes()
                assert (data, len(w)) == (ref.to_bytes(), len(ref.bits))
                r = BitReader(data, len(w))
                r.read_uint(offset)
                assert read_varint(r) == n and r.remaining == 0
                # cut after the last flag, then anywhere before it; the bits
                # past the cut are still in the buffer and must not be read
                for cut in (len(w) - 1, len(w) - 2,
                            *range(offset, len(w) - 2, 7)):
                    r = BitReader(data, cut)
                    r.read_uint(offset)
                    with pytest.raises(DecodeError):
                        read_varint(r)


CTX = wire.WireContext(4)


def _field_both_ways(codec, value, offset, write_ref):
    """The field at a bit offset: the writer's bytes equal the reference's,
    the reference's bytes read back as value, and a cut raises (every cut in
    the first and last 64 bits, every 61st in between)."""
    w, ref = _both_writers([1] * offset)
    codec[0](CTX, w, value)
    write_ref(ref)
    w.write_bit(1)
    ref.write_uint(1, 1)
    data = ref.to_bytes()
    assert (w.to_bytes(), len(w)) == (data, len(ref.bits))
    r = BitReader(data, len(ref.bits))
    r.read_uint(offset)
    assert codec[1](CTX, r) == value
    assert r.read_bit() == 1 and r.remaining == 0
    end = len(ref.bits) - 1
    for cut in range(offset, end):
        if 64 <= cut - offset and end - cut > 64 and cut % 61:
            continue
        r = BitReader(data, cut)
        r.read_uint(offset)
        with pytest.raises(DecodeError):
            codec[1](CTX, r)


def test_merkle_path_matches_reference_at_every_offset():
    rng = random.Random(0x9A7)
    for length in (0, 1, 11, 64):
        for offset in range(8):
            proof = MerkleProof(rng.randrange(1 << 12), tuple(
                (rng.randrange(2), rng.randbytes(crypto.DIGEST_BYTES))
                for _ in range(length)))

            def write_ref(ref):
                ref.write_varint(proof.index + 1)
                ref.write_varint(length + 1)
                for side, sibling in proof.path:
                    ref.write_uint(1, side)
                    ref.write_bytes(sibling)
            _field_both_ways(wire.PROOF, proof, offset, write_ref)


def test_merkle_path_limits():
    rng = random.Random(0x9A8)
    sibling = rng.randbytes(crypto.DIGEST_BYTES)
    with pytest.raises(ValueError):
        wire.PROOF[0](CTX, BitWriter(), MerkleProof(0, ((0, sibling[1:]),)))
    w = BitWriter()
    wire.PROOF[0](CTX, w, MerkleProof(0, ((1, sibling),) * 65))
    with pytest.raises(DecodeError, match="count too large"):
        wire.PROOF[1](CTX, BitReader(w.to_bytes(), len(w)))


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
            _field_both_ways(wire.PAYLOADS, payloads, offset, write_ref)


def test_uniform_payloads_read_an_empty_declared_list():
    # the writer marks an empty list non-uniform; a uniform one still reads
    for clen, mlen in ((0, 0), (4, 4)):
        ref = RefWriter()
        ref.write_varint(1)
        ref.write_uint(1, 1)
        ref.write_varint(clen + 1)
        ref.write_varint(mlen + 1)
        r = BitReader(ref.to_bytes(), len(ref.bits))
        assert wire.PAYLOADS[1](CTX, r) == ()
        assert r.remaining == 0
