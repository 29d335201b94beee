"""Bit strings and bit-level stream I/O.

All protocol encodings are defined at bit granularity; a Bits value is an
immutable sequence over {0, 1}.  BitWriter/BitReader provide streaming access
for the wire codecs (integers are little-endian in bit order: bit i of n is
floor(n / 2^i) mod 2).  Buffers are packed LSB-first within each byte.
"""

from __future__ import annotations


class DecodeError(Exception):
    """Malformed bit stream: the decoder cannot make progress."""


class Bits:
    """Immutable finite bit string."""

    __slots__ = ("_raw",)

    def __init__(self, bits=()):
        raw = bytes(bits)
        if any(b not in (0, 1) for b in raw):
            raise ValueError("bits must be 0 or 1")
        self._raw = raw

    @classmethod
    def _wrap(cls, raw: bytes) -> "Bits":
        out = cls.__new__(cls)
        out._raw = raw
        return out

    def __len__(self):
        return len(self._raw)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return Bits._wrap(self._raw[idx])
        return self._raw[idx]

    def __iter__(self):
        return iter(self._raw)

    def __add__(self, other: "Bits") -> "Bits":
        return Bits._wrap(self._raw + other._raw)

    def __eq__(self, other):
        if isinstance(other, Bits):
            return self._raw == other._raw
        if isinstance(other, (tuple, list)):
            return tuple(self._raw) == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._raw)

    def __repr__(self):
        return "Bits(%s)" % ("".join(str(b) for b in self._raw),)

    def as_int(self) -> int:
        n = 0
        for i, b in enumerate(self._raw):
            if b:
                n |= 1 << i
        return n

    def to_bytes(self) -> bytes:
        """Pack to bytes, LSB-first within each byte, zero-padded at the end."""
        return self.as_int().to_bytes((len(self._raw) + 7) // 8, "little")

    @classmethod
    def from_bytes(cls, data: bytes, bit_len: int) -> "Bits":
        if bit_len > 8 * len(data):
            raise ValueError("bit_len exceeds data")
        value = int.from_bytes(data, "little")
        return cls._wrap(bytes((value >> i) & 1 for i in range(bit_len)))


class BitWriter:
    """Append-only bit stream builder over a packed buffer.

    Invariant: the buffer holds exactly ceil(len / 8) bytes and every bit at
    or past `len` is zero.  Bits are only ever appended, so a write touches
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

    def write_bits(self, bits: Bits):
        self.write_uint(len(bits), bits.as_int())

    def write_bytes(self, data: bytes):
        if self._bitlen & 7 == 0:
            self._buf.extend(data)
            self._bitlen += 8 * len(data)
        elif data:
            self.write_uint(8 * len(data), int.from_bytes(data, "little"))

    def to_bits(self) -> Bits:
        return Bits.from_bytes(bytes(self._buf), self._bitlen)

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

    @classmethod
    def from_bits(cls, bits: Bits) -> "BitReader":
        return cls(bits.to_bytes(), len(bits))

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

    def read_rest(self) -> Bits:
        rest = self.remaining
        return Bits.from_bytes(self.read_uint(rest).to_bytes((rest + 7) // 8,
                                                             "little"), rest)
