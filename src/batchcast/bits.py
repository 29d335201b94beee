"""Bit-level stream I/O.

All protocol encodings are defined at bit granularity.  BitWriter/BitReader
provide streaming access for the wire codecs (integers are little-endian in
bit order: bit i of n is floor(n / 2^i) mod 2).  Buffers are packed LSB-first
within each byte.
"""

from __future__ import annotations


class DecodeError(Exception):
    """Malformed bit stream: the decoder cannot make progress."""


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
