"""Protocol messages and their bit-exact wire format.

Every message serializes to a self-delimiting bit stream, padded with zeros
to a whole number of bytes at the very end.  One table, `_SPECS`, gives each
message type its tag and its fields' codecs and drives both directions; the
per-field layout is documented in docs/wire_format.md.  Deserializing
arbitrary bytes never raises anything but DecodeError, which state machines
treat as an ignorable invalid message.

Field widths for cryptographic material are the configured constants from
the crypto module, independent of the in-memory representation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import chain

from . import crypto
from .bits import BitReader, BitWriter, DecodeError
from .crypto import Certificate, MerkleProof
from .encoding import read_partition, read_vnat, write_partition, write_vnat
from .procs import Id

MAX_BLOB_BYTES = 1 << 20  # parse-safety cap for length-prefixed fields


# ---------------------------------------------------------------------------
# signing statements (canonical byte encodings)

def stmt_message(context: bytes, message: bytes) -> bytes:
    return b"message|%d|" % len(context) + context + b"|" + message


def stmt_reduction(root: bytes) -> bytes:
    return b"reduction|" + root


def stmt_witness(root: bytes) -> bytes:
    return b"witness|" + root


def _ids_blob(ids) -> bytes:
    return b"".join(b"%d:%d;" % i for i in sorted(ids))


def stmt_commit(root: bytes, exceptions) -> bytes:
    return b"commit|" + root + b"|" + _ids_blob(exceptions)


def stmt_completion(root: bytes, exclusions) -> bytes:
    return b"completion|" + root + b"|" + _ids_blob(exclusions)


def stmt_assignment(ident: Id, keycard: bytes) -> bytes:
    return b"assignment|%d:%d|" % ident + keycard


# ---------------------------------------------------------------------------
# message types

@dataclass(frozen=True)
class Assignment:
    ident: Id
    keycard: bytes
    certificate: Certificate


# client <-> broker
@dataclass(frozen=True)
class Submission:
    assignment: Assignment
    context: bytes
    message: bytes
    signature: bytes


@dataclass(frozen=True)
class Inclusion:
    context: bytes
    root: bytes
    proof: MerkleProof


@dataclass(frozen=True)
class Reduction:
    root: bytes
    msig: bytes


@dataclass(frozen=True)
class Completion:
    root: bytes
    certificate: Certificate
    exclusions: frozenset  # of Id


# broker <-> server
@dataclass(frozen=True)
class BatchMsg:
    compressed_ids: tuple  # ((domain, (index, ...)), ...) sorted
    payloads: tuple  # ((context, message), ...) in id order


@dataclass(frozen=True)
class BatchAcquired:
    root: bytes
    unknowns: tuple  # sorted ids


@dataclass(frozen=True)
class Signatures:
    root: bytes
    assignments: tuple  # of Assignment, for the unknowns
    msig: bytes  # aggregate over [Reduction, root]
    stragglers: tuple  # ((id, signature), ...) sorted by id


@dataclass(frozen=True)
class WitnessShard:
    root: bytes
    shard: bytes


@dataclass(frozen=True)
class Witness:
    root: bytes
    certificate: Certificate


@dataclass(frozen=True)
class EquivocationProof:
    conflict_root: bytes
    conflict_witness: Certificate
    proof: MerkleProof
    conflict_message: bytes


@dataclass(frozen=True)
class CommitShard:
    root: bytes
    conflicts: tuple  # ((id, EquivocationProof), ...) sorted by id
    shard: bytes


@dataclass(frozen=True)
class Commit:
    root: bytes
    patches: tuple  # ((exception ids tuple, Certificate), ...)


@dataclass(frozen=True)
class CompletionShard:
    root: bytes
    shard: bytes


# server <-> server totality fallback
@dataclass(frozen=True)
class OfferTotality:
    root: bytes
    exclusions: frozenset


@dataclass(frozen=True)
class AcceptTotality:
    root: bytes
    exclusions: frozenset


@dataclass(frozen=True)
class Totality:
    root: bytes
    assignments: tuple
    compressed_ids: tuple
    payloads: tuple
    patches: tuple


# directory signup
@dataclass(frozen=True)
class Signup:
    pass


@dataclass(frozen=True)
class Ranked:
    domain: int  # ordinal of the server whose log ranked the sender's key


@dataclass(frozen=True)
class Assigner:
    domain: int


@dataclass(frozen=True)
class AssignShard:
    index: int
    shard: bytes


# FIFO broadcast among servers (double-echo)
@dataclass(frozen=True)
class FifoSend:
    seq: int
    payload: bytes


@dataclass(frozen=True)
class FifoEcho:
    origin: int
    seq: int
    payload: bytes


@dataclass(frozen=True)
class FifoReady:
    origin: int
    seq: int
    payload: bytes


def tag_name(msg) -> str:
    return type(msg).__name__


# ---------------------------------------------------------------------------
# field codecs
#
# A codec is a (write(ctx, w, value), read(ctx, r)) pair.  Every count and
# length read off the wire is capped before anything is allocated for it.

class WireContext:
    """Serialization context: the shared server enumeration, and the last
    message `serialize` encoded with its bytes (see `serialize`)."""

    def __init__(self, n_servers: int):
        self.n_servers = n_servers
        self.domains = list(range(n_servers))
        self.last = (object(), b"")  # (message, its bytes); matches none


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
    write_partition(w, mu, ctx.domains)


def _read_partition(ctx, r) -> tuple:
    mu = read_partition(r, ctx.domains)
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

_SPECS = [
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
_CODECS = [record(cls, *codecs) for cls, codecs in _SPECS]
_TAGS = {cls: tag for tag, (cls, _) in enumerate(_SPECS)}


def serialize(ctx: WireContext, msg) -> bytes:
    """The wire bytes of `msg`.

    Each `WireContext` remembers the last message object it encoded, by
    identity, with its bytes; serializing that same object again returns the
    same bytes object without encoding.  So a fan-out that builds its
    message once and sends it to N destinations encodes it once.  This is
    sound because every message is deeply immutable (frozen dataclasses over
    tuples, frozensets, bytes, ints, bools and None), so its encoding cannot
    change, and the memo's reference keeps the object's id from being
    reused.  An encode that raises leaves the memo as it was.
    """
    last, data = ctx.last
    if msg is last:
        return data
    tag = _TAGS[type(msg)]
    w = BitWriter()
    w.write_uint(8, tag)
    _CODECS[tag][0](ctx, w, msg)
    data = w.to_bytes()
    ctx.last = (msg, data)
    return data


def deserialize(ctx: WireContext, data: bytes):
    r = BitReader(data)
    try:
        tag = r.read_uint(8)
        if tag >= len(_CODECS):
            raise DecodeError("unknown tag")
        return _CODECS[tag][1](ctx, r)
    except (ValueError, IndexError, OverflowError) as exc:
        raise DecodeError(str(exc)) from exc


# canonical leaf encoding for the batch Merkle tree
def leaf_bytes(ident: Id, context: bytes, message: bytes) -> bytes:
    return (b"%d:%d|%d|" % (ident[0], ident[1], len(context))
            + context + b"|" + message)
