"""Protocol messages and their bit-exact wire format.

Every message serializes to a self-delimiting bit stream, padded with zeros
to a whole number of bytes at the very end; the per-field layout is documented
in docs/wire_format.md.  Deserializing arbitrary bytes never raises anything
but DecodeError, which state machines treat as an ignorable invalid message.

Field widths for cryptographic material are the configured constants from
the crypto module, independent of the in-memory representation.
"""

from __future__ import annotations

from dataclasses import dataclass

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


_MESSAGE_TYPES = [
    Submission, Inclusion, Reduction, BatchMsg, BatchAcquired, Signatures,
    WitnessShard, Witness, CommitShard, Commit, CompletionShard, Completion,
    OfferTotality, AcceptTotality, Totality,
    Signup, Ranked, Assigner, AssignShard,
    FifoSend, FifoEcho, FifoReady,
]
_TAG_OF = {cls: tag for tag, cls in enumerate(_MESSAGE_TYPES)}


def tag_name(msg) -> str:
    return type(msg).__name__


# ---------------------------------------------------------------------------
# field codecs

class WireContext:
    """Serialization context: the shared server enumeration."""

    def __init__(self, n_servers: int):
        self.n_servers = n_servers
        self.domains = list(range(n_servers))


def _w_blob(w: BitWriter, data: bytes):
    write_vnat(w, len(data))
    w.write_bytes(data)


def _r_blob(r: BitReader) -> bytes:
    n = read_vnat(r)
    if n > MAX_BLOB_BYTES:
        raise DecodeError("blob too long")
    return r.read_bytes(n)


def _w_fixed(w: BitWriter, data: bytes, nbytes: int):
    if len(data) != nbytes:
        raise ValueError("fixed-width field has wrong length")
    w.write_bytes(data)


def _r_fixed(r: BitReader, nbytes: int) -> bytes:
    return r.read_bytes(nbytes)


def _w_root(w, root):
    _w_fixed(w, root, crypto.DIGEST_BYTES)


def _r_root(r):
    return _r_fixed(r, crypto.DIGEST_BYTES)


def _w_id(w: BitWriter, ident: Id):
    write_vnat(w, ident[0])
    write_vnat(w, ident[1])


def _r_id(r: BitReader) -> Id:
    return (read_vnat(r), read_vnat(r))


def _w_id_set(w: BitWriter, ids):
    write_vnat(w, len(ids))
    for ident in sorted(ids):
        _w_id(w, ident)


def _r_id_set(r: BitReader) -> frozenset:
    count = read_vnat(r)
    if count > MAX_BLOB_BYTES:
        raise DecodeError("id set too long")
    return frozenset(_r_id(r) for _ in range(count))


def _w_certificate(ctx: WireContext, w: BitWriter, cert: Certificate):
    _w_fixed(w, cert.msig, crypto.MULTISIG_BYTES)
    w.write_uint(ctx.n_servers, sum(1 << o for o in range(ctx.n_servers)
                                    if o in cert.signers))


def _r_certificate(ctx: WireContext, r: BitReader) -> Certificate:
    msig = _r_fixed(r, crypto.MULTISIG_BYTES)
    bitmap = r.read_uint(ctx.n_servers)
    signers = frozenset(o for o in range(ctx.n_servers) if bitmap >> o & 1)
    return Certificate(signers, msig)


def _w_proof(w: BitWriter, proof: MerkleProof):
    write_vnat(w, proof.index)
    write_vnat(w, len(proof.path))
    for side, sib in proof.path:
        w.write_bit(side)
        _w_fixed(w, sib, crypto.DIGEST_BYTES)


def _r_proof(r: BitReader) -> MerkleProof:
    index = read_vnat(r)
    count = read_vnat(r)
    if count > 64:
        raise DecodeError("proof too long")
    path = tuple((r.read_bit(), _r_fixed(r, crypto.DIGEST_BYTES))
                 for _ in range(count))
    return MerkleProof(index, path)


def _w_assignment(ctx, w, a: Assignment):
    _w_id(w, a.ident)
    _w_fixed(w, a.keycard, crypto.PUBKEY_BYTES)
    _w_certificate(ctx, w, a.certificate)


def _r_assignment(ctx, r) -> Assignment:
    ident = _r_id(r)
    keycard = _r_fixed(r, crypto.PUBKEY_BYTES)
    return Assignment(ident, keycard, _r_certificate(ctx, r))


def _w_assignments(ctx, w, assignments):
    write_vnat(w, len(assignments))
    for a in assignments:
        _w_assignment(ctx, w, a)


def _r_assignments(ctx, r) -> tuple:
    count = read_vnat(r)
    if count > MAX_BLOB_BYTES:
        raise DecodeError("assignment list too long")
    return tuple(_r_assignment(ctx, r) for _ in range(count))


def _w_compressed_ids(ctx, w, compressed: tuple):
    mu = {domain: set(indices) for domain, indices in compressed}
    write_partition(w, mu, ctx.domains)


def _r_compressed_ids(ctx, r) -> tuple:
    mu = read_partition(r, ctx.domains)
    return tuple((d, tuple(sorted(mu[d]))) for d in sorted(mu))


def _w_payloads(w: BitWriter, payloads: tuple):
    """Payload list; the count is implied by the id partition.

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
        for context, message in payloads:
            w.write_bytes(context)
            w.write_bytes(message)
    else:
        for context, message in payloads:
            _w_blob(w, context)
            _w_blob(w, message)


def _r_payloads(r: BitReader) -> tuple:
    count = read_vnat(r)
    if count > MAX_BLOB_BYTES:
        raise DecodeError("payload list too long")
    uniform = r.read_bit()
    if uniform:
        clen = read_vnat(r)
        mlen = read_vnat(r)
        if clen > MAX_BLOB_BYTES or mlen > MAX_BLOB_BYTES:
            raise DecodeError("payload too long")
        return tuple((r.read_bytes(clen), r.read_bytes(mlen))
                     for _ in range(count))
    return tuple((_r_blob(r), _r_blob(r)) for _ in range(count))


def _w_patches(ctx, w, patches: tuple):
    write_vnat(w, len(patches))
    for exceptions, cert in patches:
        _w_id_set(w, exceptions)
        _w_certificate(ctx, w, cert)


def _r_patches(ctx, r) -> tuple:
    count = read_vnat(r)
    if count > MAX_BLOB_BYTES:
        raise DecodeError("patch list too long")
    return tuple((tuple(sorted(_r_id_set(r))), _r_certificate(ctx, r))
                 for _ in range(count))


def _w_conflicts(ctx, w, conflicts: tuple):
    write_vnat(w, len(conflicts))
    for ident, ep in conflicts:
        _w_id(w, ident)
        _w_root(w, ep.conflict_root)
        _w_certificate(ctx, w, ep.conflict_witness)
        _w_proof(w, ep.proof)
        _w_blob(w, ep.conflict_message)


def _r_conflicts(ctx, r) -> tuple:
    count = read_vnat(r)
    if count > MAX_BLOB_BYTES:
        raise DecodeError("conflict list too long")
    out = []
    for _ in range(count):
        ident = _r_id(r)
        out.append((ident, EquivocationProof(
            _r_root(r), _r_certificate(ctx, r), _r_proof(r), _r_blob(r))))
    return tuple(out)


# ---------------------------------------------------------------------------
# top-level serialize / deserialize

def serialize(ctx: WireContext, msg) -> bytes:
    w = BitWriter()
    w.write_uint(8, _TAG_OF[type(msg)])
    t = type(msg)
    if t is Submission:
        _w_assignment(ctx, w, msg.assignment)
        _w_blob(w, msg.context)
        _w_blob(w, msg.message)
        _w_fixed(w, msg.signature, crypto.SIGNATURE_BYTES)
    elif t is Inclusion:
        _w_blob(w, msg.context)
        _w_root(w, msg.root)
        _w_proof(w, msg.proof)
    elif t is Reduction:
        _w_root(w, msg.root)
        _w_fixed(w, msg.msig, crypto.MULTISIG_BYTES)
    elif t is BatchMsg:
        _w_compressed_ids(ctx, w, msg.compressed_ids)
        _w_payloads(w, msg.payloads)
    elif t is BatchAcquired:
        _w_root(w, msg.root)
        _w_id_set(w, msg.unknowns)
    elif t is Signatures:
        _w_root(w, msg.root)
        _w_assignments(ctx, w, msg.assignments)
        _w_fixed(w, msg.msig, crypto.MULTISIG_BYTES)
        write_vnat(w, len(msg.stragglers))
        for ident, sig in msg.stragglers:
            _w_id(w, ident)
            _w_fixed(w, sig, crypto.SIGNATURE_BYTES)
    elif t in (WitnessShard, CompletionShard):
        _w_root(w, msg.root)
        _w_fixed(w, msg.shard, crypto.MULTISIG_BYTES)
    elif t is Witness:
        _w_root(w, msg.root)
        _w_certificate(ctx, w, msg.certificate)
    elif t is CommitShard:
        _w_root(w, msg.root)
        _w_conflicts(ctx, w, msg.conflicts)
        _w_fixed(w, msg.shard, crypto.MULTISIG_BYTES)
    elif t is Commit:
        _w_root(w, msg.root)
        _w_patches(ctx, w, msg.patches)
    elif t is Completion:
        _w_root(w, msg.root)
        _w_certificate(ctx, w, msg.certificate)
        _w_id_set(w, msg.exclusions)
    elif t in (OfferTotality, AcceptTotality):
        _w_root(w, msg.root)
        _w_id_set(w, msg.exclusions)
    elif t is Totality:
        _w_root(w, msg.root)
        _w_assignments(ctx, w, msg.assignments)
        _w_compressed_ids(ctx, w, msg.compressed_ids)
        _w_payloads(w, msg.payloads)
        _w_patches(ctx, w, msg.patches)
    elif t is Signup:
        pass
    elif t in (Ranked, Assigner):
        write_vnat(w, msg.domain)
    elif t is AssignShard:
        write_vnat(w, msg.index)
        _w_fixed(w, msg.shard, crypto.MULTISIG_BYTES)
    elif t is FifoSend:
        write_vnat(w, msg.seq)
        _w_blob(w, msg.payload)
    elif t in (FifoEcho, FifoReady):
        write_vnat(w, msg.origin)
        write_vnat(w, msg.seq)
        _w_blob(w, msg.payload)
    else:  # pragma: no cover
        raise TypeError(f"unknown message type {t}")
    return w.to_bytes()


def deserialize(ctx: WireContext, data: bytes):
    r = BitReader(data)
    try:
        tag = r.read_uint(8)
        if tag >= len(_MESSAGE_TYPES):
            raise DecodeError("unknown tag")
        t = _MESSAGE_TYPES[tag]
        if t is Submission:
            return Submission(_r_assignment(ctx, r), _r_blob(r), _r_blob(r),
                              _r_fixed(r, crypto.SIGNATURE_BYTES))
        if t is Inclusion:
            return Inclusion(_r_blob(r), _r_root(r), _r_proof(r))
        if t is Reduction:
            return Reduction(_r_root(r), _r_fixed(r, crypto.MULTISIG_BYTES))
        if t is BatchMsg:
            return BatchMsg(_r_compressed_ids(ctx, r), _r_payloads(r))
        if t is BatchAcquired:
            return BatchAcquired(_r_root(r), tuple(sorted(_r_id_set(r))))
        if t is Signatures:
            root = _r_root(r)
            assignments = _r_assignments(ctx, r)
            msig = _r_fixed(r, crypto.MULTISIG_BYTES)
            count = read_vnat(r)
            if count > MAX_BLOB_BYTES:
                raise DecodeError("straggler list too long")
            stragglers = tuple(
                (_r_id(r), _r_fixed(r, crypto.SIGNATURE_BYTES))
                for _ in range(count))
            return Signatures(root, assignments, msig, stragglers)
        if t is WitnessShard:
            return WitnessShard(_r_root(r), _r_fixed(r, crypto.MULTISIG_BYTES))
        if t is Witness:
            return Witness(_r_root(r), _r_certificate(ctx, r))
        if t is CommitShard:
            return CommitShard(_r_root(r), _r_conflicts(ctx, r),
                               _r_fixed(r, crypto.MULTISIG_BYTES))
        if t is Commit:
            return Commit(_r_root(r), _r_patches(ctx, r))
        if t is CompletionShard:
            return CompletionShard(_r_root(r),
                                   _r_fixed(r, crypto.MULTISIG_BYTES))
        if t is Completion:
            return Completion(_r_root(r), _r_certificate(ctx, r),
                              _r_id_set(r))
        if t is OfferTotality:
            return OfferTotality(_r_root(r), _r_id_set(r))
        if t is AcceptTotality:
            return AcceptTotality(_r_root(r), _r_id_set(r))
        if t is Totality:
            return Totality(_r_root(r), _r_assignments(ctx, r),
                            _r_compressed_ids(ctx, r), _r_payloads(r),
                            _r_patches(ctx, r))
        if t is Signup:
            return Signup()
        if t is Ranked:
            return Ranked(read_vnat(r))
        if t is Assigner:
            return Assigner(read_vnat(r))
        if t is AssignShard:
            return AssignShard(read_vnat(r), _r_fixed(r, crypto.MULTISIG_BYTES))
        if t is FifoSend:
            return FifoSend(read_vnat(r), _r_blob(r))
        if t is FifoEcho:
            return FifoEcho(read_vnat(r), read_vnat(r), _r_blob(r))
        return FifoReady(read_vnat(r), read_vnat(r), _r_blob(r))
    except DecodeError:
        raise
    except (ValueError, IndexError, OverflowError) as exc:
        raise DecodeError(str(exc)) from exc


# canonical leaf encoding for the batch Merkle tree
def leaf_bytes(ident: Id, context: bytes, message: bytes) -> bytes:
    return (b"%d:%d|%d|" % (ident[0], ident[1], len(context))
            + context + b"|" + message)
