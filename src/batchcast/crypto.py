"""Simulation-grade cryptography: hashes, signatures, aggregatable
multi-signatures, threshold certificates and Merkle inclusion proofs.

The signing backend is an oracle: a signature is a keyed hash only the oracle
can mint for the owning process, and multi-signature aggregation is XOR over
fixed-width handles (set-like, order independent, publicly computable from
held signatures).  Verification recomputes the expected handle, so it succeeds
iff exactly the claimed signers signed exactly the claimed statement.  This
keeps runs deterministic while preserving unforgeability: state machines reach
the oracle through a facade that refuses to sign for keys they do not own.

Wire widths are fixed by configuration, independent of in-memory size, so the
bit accounting reflects a real constant-size scheme: digests 256 bits,
signatures 512, multi-signatures 384, public keys (keycards) 384.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .procs import ProcessId, ProcessKind

DIGEST_BITS = 256
SIGNATURE_BITS = 512
MULTISIG_BITS = 384
PUBKEY_BITS = 384

DIGEST_BYTES = DIGEST_BITS // 8
SIGNATURE_BYTES = SIGNATURE_BITS // 8
MULTISIG_BYTES = MULTISIG_BITS // 8
PUBKEY_BYTES = PUBKEY_BITS // 8


def _xor(parts) -> bytes:
    acc = 0
    for p in parts:
        acc ^= int.from_bytes(p, "little")
    return acc.to_bytes(MULTISIG_BYTES, "little")


@dataclass(frozen=True)
class Certificate:
    """A statement multi-signed by a set of servers.

    Valid at plurality (f+1) or quorum (2f+1) depending on the check.  The
    signer set travels on the wire as an N-bit bitmap, so the serialized size
    is constant in the batch size.
    """

    signers: frozenset  # server ordinals
    msig: bytes


class Oracle:
    """Per-simulation signing oracle and key registry.

    Each verify method takes the verifying process as `caller`.  The oracle
    does not read it; it lets a wrapper attribute each call.  The trace's
    `verify` rows are the ledger of verifications.

    One oracle serves one simulation, and `shared` is that simulation's
    memo.  The aggregate and certificate checks compute their expected
    handle through it, as a pure function of the statement and the keycards
    or signers, and compare it with the claimed handle on every call, so a
    repeated check is exact and computed once.
    """

    def __init__(self, processes):
        # keycards and signing secrets (filled on first use): one dict per
        # kind, keyed by ordinal, so a lookup hashes no ProcessId
        self._keycards = tuple({} for _ in ProcessKind)
        self._secrets = tuple({} for _ in ProcessKind)
        self._owners: dict[bytes, ProcessId] = {}
        for pid in processes:
            card = hashlib.sha384(
                b"keycard|%d|%d" % (pid.kind, pid.ordinal)).digest()
            self._keycards[pid.kind][pid.ordinal] = card
            self._owners[card] = pid
        self._memos: dict = {}  # function -> (args, result) of `shared`

    def shared(self, fn, *args):
        """`fn(*args)` for a pure `fn`; the oracle keeps each function's
        last call, so callers handed equal arguments share one result."""
        last = self._memos.get(fn, (None,))
        if last[0] != args:
            last = self._memos[fn] = (args, fn(*args))
        return last[1]

    # -- identity -----------------------------------------------------------

    def keycard(self, pid: ProcessId) -> bytes:
        return self._keycards[pid.kind][pid.ordinal]

    def keycards(self, kind: ProcessKind) -> dict[int, bytes]:
        """The keycard of each process of `kind`, by ordinal."""
        return self._keycards[kind]

    def owner(self, keycard: bytes) -> ProcessId | None:
        return self._owners.get(keycard)

    def _secret(self, kind: ProcessKind, ordinal: int) -> bytes:
        of_kind = self._secrets[kind]
        secret = of_kind.get(ordinal)
        if secret is None:
            secret = of_kind[ordinal] = hashlib.sha256(
                b"secret|%d|%d" % (kind, ordinal)).digest()
        return secret

    def _msig_prefix(self, kind: ProcessKind, ordinal: int) -> bytes:
        """What a process's multi-signature hashes before the statement."""
        return b"msig|" + self._secret(kind, ordinal) + b"|"

    # -- individual signatures ----------------------------------------------

    def sign(self, caller: ProcessId, statement: bytes) -> bytes:
        secret = self._secret(caller.kind, caller.ordinal)
        return hashlib.sha512(b"sig|" + secret + b"|" + statement).digest()

    def verify(self, caller: ProcessId, keycard: bytes, statement: bytes,
               signature: bytes) -> bool:
        owner = self.owner(keycard)
        if owner is None:
            return False
        return signature == self.sign(owner, statement)

    # -- multi-signatures ----------------------------------------------------

    def multisign(self, caller: ProcessId, statement: bytes) -> bytes:
        prefix = self._msig_prefix(caller.kind, caller.ordinal)
        return hashlib.sha384(prefix + statement).digest()

    def aggregate(self, msigs) -> bytes:
        return _xor(msigs)

    def verify_aggregate(self, caller: ProcessId, keycards, statement: bytes,
                         msig: bytes) -> bool:
        """True iff msig aggregates one multi-signature per keycard, no others."""
        expected = self.shared(self._aggregate_of, statement, tuple(keycards))
        return expected is not None and msig == expected

    def _aggregate_of(self, statement: bytes, keycards: tuple) -> bytes | None:
        """The aggregate of each keycard's multi-signature on statement, or
        None if a keycard has no owner."""
        owners = [self.owner(card) for card in keycards]
        if any(o is None for o in owners):
            return None
        return _xor(self.multisign(o, statement) for o in owners)

    # -- server certificates --------------------------------------------------

    def certify(self, shards: dict) -> Certificate:
        """Aggregate {server ordinal: multi-signature} into a certificate."""
        ordinals = sorted(shards)
        return Certificate(frozenset(ordinals),
                           _xor(shards[o] for o in ordinals))

    def certify_each(self, statements, signers) -> list[Certificate]:
        """`certify` of the `multisign` shards of the servers of ordinals
        `signers` on each of `statements`; the certificates share one signer
        set, and each signer's hash prefix is built once."""
        signers, sha384 = frozenset(signers), hashlib.sha384
        prefixes = [self._msig_prefix(ProcessKind.SERVER, o)
                    for o in sorted(signers)]
        return [Certificate(signers, _xor(sha384(p + stmt).digest()
                                          for p in prefixes))
                for stmt in statements]

    def verify_certificate(self, caller: ProcessId, cert: Certificate,
                           statement: bytes, threshold: int) -> bool:
        """True iff `cert` holds at least `threshold` signers, each a server
        the registry knows, and aggregates exactly their multi-signatures."""
        if not isinstance(cert, Certificate) or len(cert.signers) < threshold:
            return False
        known = self._keycards[ProcessKind.SERVER]
        if any(o not in known for o in cert.signers):
            return False
        (expected,) = self.shared(self.certify_each, (statement,),
                                  cert.signers)
        return cert.msig == expected.msig


# ---------------------------------------------------------------------------
# Merkle trees (ideal-accumulator stand-in)

def _leaf_digest(index: int, leaf: bytes) -> bytes:
    # the index is hashed into the leaf so a proof binds (position, value)
    return hashlib.sha256(b"\x00" + index.to_bytes(8, "big") + leaf).digest()


def _node_digest(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(b"\x01" + left + right).digest()


@dataclass(frozen=True)
class MerkleProof:
    index: int
    path: tuple  # ((side, digest), ...) bottom-up; side 0 = sibling on right


class MerkleTree:
    """Merkle tree over a non-empty leaf sequence.

    Odd-width levels promote the unpaired digest unchanged, so proofs have at
    most ceil(log2(n)) siblings (exactly that many when n is a power of two).
    """

    def __init__(self, leaves):
        if not leaves:
            raise ValueError("merkle tree needs at least one leaf")
        self.leaves = list(leaves)
        level = [_leaf_digest(i, leaf) for i, leaf in enumerate(self.leaves)]
        self.levels = [level]
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level) - 1, 2):
                nxt.append(_node_digest(level[i], level[i + 1]))
            if len(level) % 2:
                nxt.append(level[-1])
            self.levels.append(nxt)
            level = nxt

    def root(self) -> bytes:
        return self.levels[-1][0]

    def prove(self, index: int) -> MerkleProof:
        if not 0 <= index < len(self.leaves):
            raise IndexError("leaf index out of range")
        path = []
        pos = index
        for level in self.levels[:-1]:
            sibling = pos ^ 1
            if sibling < len(level):
                side = 1 if sibling < pos else 0
                path.append((side, level[sibling]))
            pos //= 2
        return MerkleProof(index, tuple(path))


def merkle_verify(root: bytes, proof: MerkleProof, leaf: bytes) -> bool:
    """True iff `proof` shows `leaf` at `proof.index` under `root`; an index
    the leaf digest's 8 bytes cannot hold fails."""
    if not isinstance(proof, MerkleProof) or not 0 <= proof.index < 1 << 64:
        return False
    node = _leaf_digest(proof.index, leaf)
    for side, sibling in proof.path:
        if not isinstance(sibling, bytes) or len(sibling) != DIGEST_BYTES:
            return False
        node = _node_digest(sibling, node) if side else _node_digest(node, sibling)
    return node == root
