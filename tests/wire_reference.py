"""The table-driven wire codec, kept as the reference the compiled codec
in `batchcast.wire` is checked against (tests/test_wire_equivalence.py).

This is the combinator codec `wire` used before its layouts were compiled:
a bit writer and reader, the varint and partition codecs, and one
(write, read) pair of functions per field, walked per message by
`record`.  It differs from that codec in one place: `read_partition`
rejects d = 0 and w = 0, which no writer emits, and a partition whose
indices need more bits than remain, before it reads them.
"""

from __future__ import annotations

from dataclasses import fields
from itertools import chain

from batchcast import crypto
from batchcast.bits import DecodeError
from batchcast.crypto import Certificate, MerkleProof
from batchcast.wire import (MAX_BLOB_BYTES, AcceptTotality, Assigner,
                            AssignShard, Assignment, BatchAcquired, BatchMsg,
                            Commit, CommitShard, Completion, CompletionShard,
                            EquivocationProof, FifoEcho, FifoReady, FifoSend,
                            Inclusion, OfferTotality, Ranked, Reduction,
                            Signatures, Signup, Submission, Totality, Witness,
                            WireContext, WitnessShard)


class BitWriter:
    """Append-only bit stream builder over a packed buffer.

    Invariant: the buffer holds exactly ceil(len / 8) bytes and every bit at
    or past `len` is zero.  Writes only ever append, so each one touches
    the partial last byte with one OR and appends the rest as one chunk.
    """

    def __init__(self):
        self._buf = bytearray()
        self._bitlen = 0

    def __len__(self):
        return self._bitlen

    def write_uint(self, width: int, n: int):
        """Write n as a width-bit little-endian integer."""
        if n < 0 or width < n.bit_length():
            raise ValueError(f"{n} does not fit in {width} bits")
        pos = self._bitlen
        self._bitlen = end = pos + width
        buf = self._buf
        shift = pos & 7
        if shift:
            n <<= shift
            buf[-1] |= n & 0xFF
            n >>= 8
        buf += n.to_bytes((end + 7) // 8 - len(buf), "little")

    def write_bit(self, b: int):
        self.write_uint(1, b & 1)

    def write_bytes(self, data: bytes):
        if self._bitlen & 7 == 0:
            self._buf.extend(data)
            self._bitlen += 8 * len(data)
        elif data:
            self.write_uint(8 * len(data), int.from_bytes(data, "little"))

    def to_bytes(self) -> bytes:
        return bytes(self._buf)


class BitReader:
    """Sequential reader over a packed byte buffer.

    Trailing padding bits are simply never consumed; running past the end
    raises DecodeError.
    """

    def __init__(self, data: bytes, bit_len: int | None = None):
        self._data = data
        self._len = 8 * len(data) if bit_len is None else bit_len
        self._pos = 0

    @property
    def remaining(self) -> int:
        return self._len - self._pos

    def read_uint(self, width: int) -> int:
        pos = self._pos
        if pos + width > self._len:
            raise DecodeError("bit stream exhausted")
        self._pos += width
        if width == 0:
            return 0
        first = pos >> 3
        last = (pos + width - 1) >> 3
        window = int.from_bytes(self._data[first:last + 1], "little")
        return (window >> (pos & 7)) & ((1 << width) - 1)

    def peek(self, width: int) -> tuple[int, int]:
        """The next width bits, or all that remain if fewer, left unconsumed:
        (the bits as read_uint returns them, how many there are)."""
        width = min(width, self._len - self._pos)
        n = self.read_uint(width)
        self._pos -= width
        return n, width

    def skip(self, width: int):
        if self._pos + width > self._len:
            raise DecodeError("bit stream exhausted")
        self._pos += width

    def read_bit(self) -> int:
        return self.read_uint(1)

    def read_bytes(self, count: int) -> bytes:
        if count == 0:
            return b""
        if self._pos & 7 == 0:
            pos = self._pos
            if pos + 8 * count > self._len:
                raise DecodeError("bit stream exhausted")
            self._pos += 8 * count
            return bytes(self._data[pos >> 3:(pos >> 3) + count])
        return self.read_uint(8 * count).to_bytes(count, "little")


def _width(n: int) -> int:
    """ceil(log2(n + 1)): bits needed to represent 0..n."""
    return n.bit_length()


# ---------------------------------------------------------------------------
# varint encoding

def write_varint(w: BitWriter, n: int):
    if n < 1:
        raise ValueError("varint domain is n >= 1")
    data_len = _width(n)
    # read as base 4, the binary digits of n land on the even bit positions;
    # shifted up one they become the odd (data) positions of the varint
    data = int(format(n, "b"), 4) << 1
    # continuation flags: 1 on the even positions of every pair but the last
    more = ((1 << 2 * (data_len - 1)) - 1) // 3
    w.write_uint(2 * data_len, data | more)


_WINDOW = 64  # bits read_varint examines at once: 32 (flag, data) pairs
_FLAGS = 0x5555555555555555  # the continuation flags of a window


def _data_bits(pairs: int) -> int:
    """Bit i of the result is data bit 2i + 1 of up to 32 pairs."""
    x = (pairs >> 1) & _FLAGS
    x = (x | x >> 1) & 0x3333333333333333
    x = (x | x >> 2) & 0x0F0F0F0F0F0F0F0F
    x = (x | x >> 4) & 0x00FF00FF00FF00FF
    x = (x | x >> 8) & 0x0000FFFF0000FFFF
    return (x | x >> 16) & 0xFFFFFFFF


def read_varint(r: BitReader) -> int:
    """One window of pairs per step, up to the first clear flag."""
    n = shift = 0
    while True:
        window, avail = r.peek(_WINDOW)
        stops = ~window & _FLAGS & ((1 << avail) - 1)
        if stops:
            end = (stops & -stops).bit_length() + 1  # through the data bit
            r.skip(end)  # DecodeError if the data bit is cut off
            return n | _data_bits(window & ((1 << end) - 1)) << shift
        r.skip(_WINDOW)  # DecodeError if the stream ends mid-varint
        n |= _data_bits(window) << shift
        shift += _WINDOW // 2


def write_vnat(w: BitWriter, n: int):
    """Nonnegative count, shifted into the varint domain."""
    write_varint(w, n + 1)


def read_vnat(r: BitReader) -> int:
    n = read_varint(r)
    if n < 1:
        raise DecodeError("bad vnat")
    return n - 1


# ---------------------------------------------------------------------------
# partition encoding

def partition_size(mu: dict) -> int:
    return sum(len(v) for v in mu.values())


def partition_max(mu: dict) -> int:
    return max(max(v) for v in mu.values() if v)


def write_partition(w: BitWriter, mu: dict, domains: list):
    """Encode an integer partition over the shared domain enumeration.

    mu maps a subset of `domains` to finite sets of nonnegative integers;
    domains absent from mu encode as empty sets.  Requires |mu| >= 1.
    """
    total = partition_size(mu)
    if total < 1:
        raise ValueError("partition must contain at least one integer")
    d = _width(total)
    width = max(_width(partition_max(mu)), 1)
    write_varint(w, d)
    write_varint(w, width)
    counts = [len(mu.get(x, ())) for x in domains]
    for y in reversed(counts):
        w.write_uint(d, y)
    zs: list[int] = []
    for x in domains:
        zs.extend(sorted(mu.get(x, ())))
    for z in reversed(zs):
        w.write_uint(width, z)


def read_partition(r: BitReader, domains: list) -> dict:
    d = read_varint(r)
    width = read_varint(r)
    if d < 1 or width < 1:
        raise DecodeError("zero-width partition field")
    counts = [r.read_uint(d) for _ in domains]
    counts.reverse()
    total = sum(counts)
    if total < 1:
        raise DecodeError("empty partition")
    if total * width > r.remaining:
        raise DecodeError("partition indices overrun the stream")
    zs = [r.read_uint(width) for _ in range(total)]
    zs.reverse()
    mu: dict = {}
    pos = 0
    for x, y in zip(domains, counts):
        if y:
            group = zs[pos:pos + y]
            if len(set(group)) != y:
                raise DecodeError("repeated index in partition group")
            mu[x] = set(group)
            pos += y
    if partition_size(mu) != total:
        raise DecodeError("inconsistent partition counts")
    return mu


def _read_count(r: BitReader, limit: int = MAX_BLOB_BYTES) -> int:
    count = read_vnat(r)
    if count > limit:
        raise DecodeError("count too large")
    return count


def fixed(nbytes: int):
    def write(ctx, w, data):
        if len(data) != nbytes:
            raise ValueError("fixed-width field has wrong length")
        w.write_bytes(data)
    return write, lambda ctx, r: r.read_bytes(nbytes)


def _write_blob(ctx, w, data):
    write_vnat(w, len(data))
    w.write_bytes(data)


def _read_blob(ctx, r) -> bytes:
    return r.read_bytes(_read_count(r))


def seq(item, build):
    """vnat(count), then the items; decodes to build(items)."""
    put, get = item

    def write(ctx, w, items):
        write_vnat(w, len(items))
        for x in items:
            put(ctx, w, x)
    return write, lambda ctx, r: build(get(ctx, r)
                                       for _ in range(_read_count(r)))


def pair(a, b):
    (put_a, get_a), (put_b, get_b) = a, b

    def write(ctx, w, value):
        first, second = value
        put_a(ctx, w, first)
        put_b(ctx, w, second)
    return write, lambda ctx, r: (get_a(ctx, r), get_b(ctx, r))


def record(cls, *codecs):
    """The dataclass's fields in declaration order, one codec each."""
    names = [f.name for f in fields(cls)]
    if len(names) != len(codecs):
        raise TypeError(f"{cls.__name__} has {len(names)} fields, "
                        f"spec gives {len(codecs)}")
    puts = [(name, put) for name, (put, _) in zip(names, codecs)]
    gets = [get for _, get in codecs]

    def write(ctx, w, obj):
        for name, put in puts:
            put(ctx, w, getattr(obj, name))
    return write, lambda ctx, r: cls(*[get(ctx, r) for get in gets])


DIGEST = fixed(crypto.DIGEST_BYTES)
SIGNATURE = fixed(crypto.SIGNATURE_BYTES)
MULTISIG = fixed(crypto.MULTISIG_BYTES)
KEYCARD = fixed(crypto.PUBKEY_BYTES)
VNAT = (lambda ctx, w, n: write_vnat(w, n), lambda ctx, r: read_vnat(r))
BLOB = (_write_blob, _read_blob)
ID = pair(VNAT, VNAT)


def _id_set(build):
    """Ids in ascending order; decodes through a frozenset into build."""
    put, get = seq(ID, frozenset)
    return (lambda ctx, w, ids: put(ctx, w, sorted(ids)),
            lambda ctx, r: build(get(ctx, r)))


ID_SET = _id_set(frozenset)
ID_TUPLE = _id_set(lambda ids: tuple(sorted(ids)))


def _write_certificate(ctx, w, cert: Certificate):
    MULTISIG[0](ctx, w, cert.msig)
    w.write_uint(ctx.n_servers, sum(1 << o for o in range(ctx.n_servers)
                                    if o in cert.signers))


def _read_certificate(ctx, r) -> Certificate:
    msig = r.read_bytes(crypto.MULTISIG_BYTES)
    bitmap = r.read_uint(ctx.n_servers)
    signers = frozenset(o for o in range(ctx.n_servers) if bitmap >> o & 1)
    return Certificate(signers, msig)


CERTIFICATE = (_write_certificate, _read_certificate)


_PATH_ENTRY = 1 + 8 * crypto.DIGEST_BYTES  # side bit, then the sibling
_DIGEST_MASK = (1 << 8 * crypto.DIGEST_BYTES) - 1


def _write_proof(ctx, w, proof: MerkleProof):
    """The path is one field: entry i at bits [257 i, 257 i + 257)."""
    write_vnat(w, proof.index)
    write_vnat(w, len(proof.path))
    entries = 0
    for side, sib in reversed(proof.path):
        if len(sib) != crypto.DIGEST_BYTES:
            raise ValueError("fixed-width field has wrong length")
        entries = (entries << _PATH_ENTRY
                   | int.from_bytes(sib, "little") << 1 | side & 1)
    w.write_uint(_PATH_ENTRY * len(proof.path), entries)


def _read_proof(ctx, r) -> MerkleProof:
    index = read_vnat(r)
    count = _read_count(r, 64)
    entries = r.read_uint(_PATH_ENTRY * count)
    path = []
    for _ in range(count):
        path.append((entries & 1, (entries >> 1 & _DIGEST_MASK).to_bytes(
            crypto.DIGEST_BYTES, "little")))
        entries >>= _PATH_ENTRY
    return MerkleProof(index, tuple(path))


PROOF = (_write_proof, _read_proof)


def _write_partition(ctx, w, compressed: tuple):
    mu = {domain: set(indices) for domain, indices in compressed}
    write_partition(w, mu, range(ctx.n_servers))


def _read_partition(ctx, r) -> tuple:
    mu = read_partition(r, range(ctx.n_servers))
    return tuple((d, tuple(sorted(mu[d]))) for d in sorted(mu))


PARTITION = (_write_partition, _read_partition)


def _write_payloads(ctx, w, payloads: tuple):
    """Payload list.

    Uniform-length payloads declare the two lengths once, so the framing
    overhead is constant per batch rather than per payload.
    """
    write_vnat(w, len(payloads))
    uniform = (len(payloads) > 0
               and len({len(c) for c, _ in payloads}) == 1
               and len({len(m) for _, m in payloads}) == 1)
    w.write_bit(1 if uniform else 0)
    if uniform:
        write_vnat(w, len(payloads[0][0]))
        write_vnat(w, len(payloads[0][1]))
        w.write_bytes(b"".join(chain.from_iterable(payloads)))
    else:
        for context, message in payloads:
            _write_blob(ctx, w, context)
            _write_blob(ctx, w, message)


def _read_payloads(ctx, r) -> tuple:
    count = _read_count(r)
    if r.read_bit():
        clen = _read_count(r)
        mlen = _read_count(r)
        step = clen + mlen
        if not step:
            return ((b"", b""),) * count
        block = r.read_bytes(count * step)
        return tuple((block[i:i + clen], block[i + clen:i + step])
                     for i in range(0, count * step, step))
    return tuple((_read_blob(ctx, r), _read_blob(ctx, r))
                 for _ in range(count))


PAYLOADS = (_write_payloads, _read_payloads)

ASSIGNMENT = record(Assignment, ID, KEYCARD, CERTIFICATE)
ASSIGNMENTS = seq(ASSIGNMENT, tuple)
PATCHES = seq(pair(ID_TUPLE, CERTIFICATE), tuple)


# ---------------------------------------------------------------------------
# the message table: a message's tag is its index here

_TABLE = [
    (Submission, (ASSIGNMENT, BLOB, BLOB, SIGNATURE)),
    (Inclusion, (BLOB, DIGEST, PROOF)),
    (Reduction, (DIGEST, MULTISIG)),
    (BatchMsg, (PARTITION, PAYLOADS)),
    (BatchAcquired, (DIGEST, ID_TUPLE)),
    (Signatures, (DIGEST, ASSIGNMENTS, MULTISIG,
                  seq(pair(ID, SIGNATURE), tuple))),
    (WitnessShard, (DIGEST, MULTISIG)),
    (Witness, (DIGEST, CERTIFICATE)),
    (CommitShard, (DIGEST,
                   seq(pair(ID, record(EquivocationProof, DIGEST, CERTIFICATE,
                                       PROOF, BLOB)), tuple),
                   MULTISIG)),
    (Commit, (DIGEST, PATCHES)),
    (CompletionShard, (DIGEST, MULTISIG)),
    (Completion, (DIGEST, CERTIFICATE, ID_SET)),
    (OfferTotality, (DIGEST, ID_SET)),
    (AcceptTotality, (DIGEST, ID_SET)),
    (Totality, (DIGEST, ASSIGNMENTS, PARTITION, PAYLOADS, PATCHES)),
    (Signup, ()),
    (Ranked, (VNAT,)),
    (Assigner, (VNAT,)),
    (AssignShard, (VNAT, MULTISIG)),
    (FifoSend, (VNAT, BLOB)),
    (FifoEcho, (VNAT, VNAT, BLOB)),
    (FifoReady, (VNAT, VNAT, BLOB)),
]
_CODECS = [record(cls, *codecs) for cls, codecs in _TABLE]
_TAGS = {cls: tag for tag, (cls, _) in enumerate(_TABLE)}


def serialize(ctx: WireContext, msg) -> bytes:
    """The wire bytes of `msg` (no memo)."""
    tag = _TAGS[type(msg)]
    w = BitWriter()
    w.write_uint(8, tag)
    _CODECS[tag][0](ctx, w, msg)
    return w.to_bytes()


def deserialize(ctx: WireContext, data: bytes):
    r = BitReader(data)
    try:
        tag = r.read_uint(8)
        if tag >= len(_CODECS):
            raise DecodeError("unknown tag")
        return _CODECS[tag][1](ctx, r)
    except (ValueError, IndexError, OverflowError) as exc:
        raise DecodeError(str(exc)) from exc
