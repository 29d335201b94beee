"""Bit-exact varint and partition codecs, plus id compression.

All codecs are little-endian in bit order and round-trip exactly:

* intrepr(b, n): n in exactly b bits (bit i = floor(n / 2^i) mod 2), as
  written by BitWriter.write_uint.
* varrepr(n), n >= 1: 2*ceil(log2(n+1)) bits; even positions carry a
  continuation flag (1 = more, 0 = last pair), odd positions carry the data
  bits of intrepr(ceil(log2(n+1)), n).
* vnat(n), n >= 0: varrepr(n + 1).  Protocol-level counts may be zero and
  varints start at 1, so counts are shifted by one on the wire.
* partition(mu) over a fixed, shared domain enumeration (x_1..x_|X|):
  varrepr(d) ++ varrepr(w) ++ |mu(x_|X|)| .. |mu(x_1)| as d-bit ints
  ++ z_|mu| .. z_1 as w-bit ints, where the z_i enumerate each mu(x) in
  ascending order, concatenated in domain order; d = ceil(log2(|mu|+1)),
  w = ceil(log2(max mu + 1)).  When max mu = 0 the width is clamped to 1 so
  the varint stays in its domain (w >= 1); for max mu >= 1 the encoded length
  is exactly |mu|*w + |X|*d + 2*ceil(log2(w+1)) + 2*ceil(log2(d+1)).
"""

from __future__ import annotations

from .bits import BitReader, BitWriter, DecodeError


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
    counts = [r.read_uint(d) for _ in domains]
    counts.reverse()
    total = sum(counts)
    if total < 1:
        raise DecodeError("empty partition")
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


def partition_encoded_len(size: int, max_index: int, n_domains: int) -> int:
    """Closed form of the encoded length, for max_index >= 1."""
    w = _width(max_index)
    d = _width(size)
    return size * w + n_domains * d + 2 * _width(w) + 2 * _width(d)


# ---------------------------------------------------------------------------
# id compression

def compress_ids(ids) -> dict:
    """Sorted duplicate-free (domain, index) sequence -> {domain: {index}}."""
    out: dict = {}
    for domain, index in ids:
        out.setdefault(domain, set()).add(index)
    return out


def expand_ids(compressed: dict) -> list:
    ids = [(domain, index)
           for domain, indices in compressed.items()
           for index in indices]
    ids.sort()
    return ids
