"""Protocol messages and their bit-exact wire format.

Every message serializes to a self-delimiting bit stream, padded with zeros
to a whole number of bytes at the very end.  Each message type is a frozen
dataclass whose fields are annotated with their layouts; at import each is
compiled into one straight-line encoder and decoder, which `serialize` and
`deserialize` dispatch to by tag, its index in `MESSAGE_TYPES`.  The
layouts are documented in docs/wire_format.md.  Deserializing arbitrary
bytes never raises anything but DecodeError, which state machines treat as
an ignorable invalid message.

Field widths for cryptographic material are the configured constants from
the crypto module, independent of the in-memory representation.

Every encoding is defined at bit granularity: a stream's bit i is bit
i % 8 of byte i // 8, and an integer is little-endian in bit order (bit i
of n is floor(n / 2^i) mod 2).

* varrepr(n), n >= 1: 2*ceil(log2(n+1)) bits; even positions carry a
  continuation flag (1 = more, 0 = last pair), odd positions carry the data
  bits of n.
* vnat(n), n >= 0: varrepr(n + 1).  Protocol-level counts may be zero and
  varints start at 1, so counts are shifted by one on the wire.
"""

from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import chain
from operator import lt

from . import crypto
from .bits import EXHAUSTED, DecodeError
from .crypto import Certificate, MerkleProof
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
# field layouts and the codec compiler
#
# A layout says how one field's value is laid out on the wire; each message
# type below annotates its fields with their layouts.  `_compile` turns each
# type, once at import, into the source of one encoder and one
# decoder in which every field is a few inline operations on one int, the
# way `dataclasses` generates `__init__`, and executes it.
#
# The encoder ORs each field into `acc` at bit `pos`, moves `pos` past it,
# and converts `acc` to bytes once, at the end.  Inside a loop it moves the
# whole bytes of `acc` out to a bytearray, `out`, once `acc` holds more than
# _SPILL bits, so no operation grows with the message.
#
# The decoder reads each field from the low bits of an int `v` whose bit 0
# is stream bit `pos`, and moves `pos` and `v` past it.  At the top level
# `v` holds the rest of the message; each item of a list reads from a
# window of `data` just large enough for it, so again no operation grows
# with the message.
# Every field's end is checked against `end`, the stream's length in bits,
# before its value is used, and every count is capped before anything is
# allocated for it.
#
# A decoder's width that depends on the server count n is a pair (c, k):
# c + k * n bits.

_SPILL = 1 << 14  # bits an encoder's acc may hold before a loop spills it
_PATH_ENTRY = 1 + 8 * crypto.DIGEST_BYTES  # side bit, then the sibling
_MAX_PATH = 64  # Merkle path entries a decoder accepts
_NONE = (0, 0)

# Varints.  Those of up to TABLE_PAIRS pairs go through two tables, since a
# lookup costs a fraction of computing the bits in Python: ENCODED gives
# the encoder a varint's bits, and VNATS gives the decoder the vnat that a
# 64-bit window holds, cut at its lowest clear flag, which marks the
# varint's last pair.  Longer ones take varint_bits and read_varint.  Ten
# pairs cover every count and index below 1,023; the tables hold 0.25 MB.
FLAGS = 0x5555555555555555  # the continuation flags of 32 (flag, data) pairs
MASK64 = (1 << 64) - 1
TABLE_PAIRS = 10
_VARINT_HEAD = (2 * TABLE_PAIRS, 0)  # the window bits a table lookup reads


def varint_bits(n: int) -> tuple[int, int]:
    """(varrepr(n) as an int, its length in bits)."""
    if n < 1:
        raise ValueError("varint domain is n >= 1")
    data_len = n.bit_length()
    # read as base 4, the binary digits of n land on the even bit positions;
    # shifted up one they become the odd (data) positions of the varint
    data = int(format(n, "b"), 4) << 1
    # continuation flags: 1 on the even positions of every pair but the last
    more = ((1 << 2 * (data_len - 1)) - 1) // 3
    return data | more, 2 * data_len


def read_varint(data: bytes, pos: int, end: int) -> tuple[int, int]:
    """(the varint at stream bit pos, its length in bits), read one 64-bit
    window at a time; DecodeError unless its last pair ends by bit `end`.
    Unlike varrepr, this returns 0 for the pair (0, 0)."""
    n = shift = 0
    start = pos
    while True:
        first = pos >> 3
        window = (int.from_bytes(data[first:first + 9], "little")
                  >> (pos & 7) & MASK64)
        stops = ~window & FLAGS
        # the bit past this window's last pair of the varint
        stop = (stops & -stops) << 2 if stops else 1 << 64
        length = stop.bit_length() - 1
        if pos + length > end:
            raise DecodeError(EXHAUSTED)
        # with that bit set, every other binary digit is a data bit
        n |= int(bin(window & stop - 1 | stop)[3::2], 2) << shift
        if stops:
            return n, pos + length - start
        pos += 64
        shift += 32


# ENCODED[n] = varint_bits(n) for 1 <= n < 2^TABLE_PAIRS
ENCODED = [None] + [varint_bits(n) for n in range(1, 1 << TABLE_PAIRS)]


def _vnat_patterns() -> dict:
    """Every stream of up to TABLE_PAIRS pairs that ends at its first clear
    flag, non-canonical ones (leading zero data bits) included, as the int
    of its bits -> the vnat it encodes.  The all-zero data patterns encode
    no vnat and are left out.  The flags fix each pattern's length, so no
    two lengths share a key."""
    patterns = {}
    for pairs in range(1, TABLE_PAIRS + 1):
        more = ((1 << 2 * (pairs - 1)) - 1) // 3
        for n in range(1, 1 << pairs):
            patterns[int(format(n, "b"), 4) << 1 | more] = n - 1
    return patterns


VNATS = _vnat_patterns()


def _plus(a, b):
    return a[0] + b[0], a[1] + b[1]


def _bits(width) -> str:
    """The source of a width."""
    c, k = width
    n = "n" if k == 1 else f"{k} * n"
    return (f"{c} + {n}" if c else n) if k else str(c)


class WireContext:
    """Serialization context: the number of servers, whose ordinals are the
    domain enumeration of a partition and the width of a signer bitmap, and
    the last message `serialize` encoded with its bytes (see `serialize`)."""

    def __init__(self, n_servers: int):
        self.n_servers = n_servers
        self.last = (object(), b"")  # (message, its bytes); matches none


# the names all generated code refers to; each message type's codec adds
# its classes and masks to its own copy
_NAMES = {
    "DecodeError": DecodeError, "EXHAUSTED": EXHAUSTED,
    "TOO_LARGE": "count too large",
    "WRONG_LENGTH": "fixed-width field has wrong length",
    "MAX_BLOB_BYTES": MAX_BLOB_BYTES, "ENCODED": ENCODED,
    "TABLE": len(ENCODED), "varint_bits": varint_bits, "VNATS": VNATS,
    "FLAGS": FLAGS, "MASK64": MASK64, "read_varint": read_varint,
    "chain": chain, "lt": lt,
}


class _Source:
    """The lines of one generated function, and the names they refer to."""

    def __init__(self, names: dict):
        self.names = names
        self.lines: list[str] = []
        self.depth = 1
        self.count = 0
        self.uses_n = False

    def __call__(self, line: str):
        self.lines.append("    " * self.depth + line)

    @contextmanager
    def block(self, head: str):
        self(head)
        self.depth += 1
        yield
        self.depth -= 1

    def local(self, stem: str) -> str:
        self.count += 1
        return f"{stem}{self.count}"

    def ref(self, cls) -> str:
        if self.names.setdefault(cls.__name__, cls) is not cls:
            raise TypeError(f"two classes named {cls.__name__}")
        return cls.__name__

    def mask(self, bits: int) -> str:
        name = f"MASK{bits}"
        self.names[name] = (1 << bits) - 1
        return name


class _Encoder(_Source):
    """Emits `encode(ctx, msg) -> bytes`.  At run time the bits written so
    far are in `acc`, and the next write goes to bit `pos`."""

    def __init__(self, names: dict, tag: int):
        super().__init__(names)
        self.tag = tag
        self.spills = False

    def put(self, value: str, width: str):
        """OR in value, an int below 2^width, and move pos past it (both
        arguments are source)."""
        self(f"acc |= {value} << pos")
        self(f"pos += {width}")

    def varint(self, n: str):
        self(f"t = {n}")
        self("x, k = ENCODED[t] if 0 < t < TABLE else varint_bits(t)")
        self.put("x", "k")

    def vnat(self, n: str):
        self.varint(f"{n} + 1")

    def spill(self):
        """At the end of a loop body."""
        self.spills = True
        with self.block(f"if pos > {_SPILL}:"):
            self('out += acc.to_bytes((pos + 7) >> 3, "little")')
            self("pos &= 7")
            self("acc = out.pop() if pos else 0")

    def source(self, name: str) -> str:
        if self.spills:
            self('out += acc.to_bytes((pos + 7) >> 3, "little")')
            self("return bytes(out)")
        else:
            self('return acc.to_bytes((pos + 7) >> 3, "little")')
        head = [f"def {name}(ctx, msg):", f"    acc = {self.tag}",
                "    pos = 8"]
        if self.uses_n:
            head.append("    n = ctx.n_servers")
        if self.spills:
            head.append("    out = bytearray()")
        return "\n".join(head + self.lines) + "\n"


class _Decoder(_Source):
    """Emits `decode(ctx, data, end) -> message` for the stream bits
    [8, end) of data, past the tag.  At run time the next read is at stream
    bit `pos`, which is bit 0 of `v`.  At compile time `stale` says `v` must
    be read afresh from `data` before its next use, and `window` is the
    source of the current list item's window in bytes, or None at the top
    level, where v holds the rest of data."""

    def __init__(self, names: dict):
        super().__init__(names)
        self.stale = False
        self.window = None

    def width(self, width) -> str:
        self.uses_n |= width[1] != 0
        return _bits(width)

    def resync(self):
        """Read v afresh at pos."""
        if self.window is None:
            self('v = int.from_bytes(data[pos >> 3:], "little") >> (pos & 7)')
        else:
            self("i = pos >> 3")
            self(f'v = int.from_bytes(data[i:i + {self.window}], "little")'
                 " >> (pos & 7)")
        self.stale = False

    def take(self, target: str, width):
        """Read the int in the next `width` bits into target, once the
        stream is checked to hold them, and move pos and v past them."""
        if self.stale:
            self.resync()
        if width[1]:
            assert width == (0, 1), width
            mask = "nmask"
        else:
            mask = self.mask(width[0])
        bits = self.width(width)
        self(f"if pos + {bits} > end: raise DecodeError(EXHAUSTED)")
        self(f"{target} = v & {mask}")
        self(f"v >>= {bits}")
        self(f"pos += {bits}")

    def vnat(self, target: str, zero: str = "bad vnat"):
        """Decode a vnat into target; `zero` is the error for varint 0."""
        if self.stale:
            self.resync()
        self("x = v & MASK64")
        self("s = ~x & FLAGS")
        self("s &= -s")  # the flag of the last pair, if within 32 pairs
        self(f"{target} = VNATS.get(x & (s << 2) - 1)")
        with self.block(f"if {target} is None:"):
            self(f"{target}, e = read_varint(data, pos, end)")
            self(f"if not {target}: raise DecodeError({zero!r})")
            self(f"{target} -= 1")
            self("pos += e")
            if self.window is None:  # v holds the rest of the message
                self("v >>= e")
            else:  # the varint may have run past the item's window
                self.resync()
        with self.block("else:"):
            self("e = s.bit_length() + 1")
            self("if pos + e > end: raise DecodeError(EXHAUSTED)")
            self("pos += e")
            self("v >>= e")

    def source(self, name: str, value: str) -> str:
        self(f"return {value}")
        head = [f"def {name}(ctx, data, end):",
                '    v = int.from_bytes(data, "little") >> 8', "    pos = 8"]
        if self.uses_n:
            head += ["    n = ctx.n_servers", "    nmask = (1 << n) - 1"]
        return "\n".join(head + self.lines) + "\n"


class _Layout:
    """How one field's value is laid out on the wire: `encode` emits the
    source that writes the value of the expression `value`, `decode` the
    source that reads one and returns an expression for it."""

    head = _NONE       # most bits a list item's decode reads from v
    top_level = False  # reads runs of any length from v: never a list item

    def encode(self, g: _Encoder, value: str):
        raise NotImplementedError

    def decode(self, g: _Decoder) -> str:
        raise NotImplementedError


class _Bytes(_Layout):
    """A fixed number of bytes."""

    def __init__(self, nbytes: int):
        self.nbytes = nbytes
        self.width = self.head = (8 * nbytes, 0)

    def encode(self, g, value):
        g(f"if len({value}) != {self.nbytes}: raise ValueError(WRONG_LENGTH)")
        g.put(f'int.from_bytes({value}, "little")', str(8 * self.nbytes))

    def decode(self, g):
        b = g.local("b")
        g.take(b, self.width)
        return f'{b}.to_bytes({self.nbytes}, "little")'


class _Vnat(_Layout):
    head = _VARINT_HEAD

    def encode(self, g, value):
        g.vnat(value)

    def decode(self, g):
        n = g.local("n")
        g.vnat(n)
        return n


class _Blob(_Layout):
    """vnat(length in bytes), then the bytes."""

    head = _VARINT_HEAD

    def encode(self, g, value):
        g.vnat(f"len({value})")
        g.put(f'int.from_bytes({value}, "little")', f"8 * len({value})")

    def decode(self, g):
        k, b = g.local("k"), g.local("b")
        g.vnat(k)
        g(f"if {k} > MAX_BLOB_BYTES: raise DecodeError(TOO_LARGE)")
        g(f"if pos + 8 * {k} > end: raise DecodeError(EXHAUSTED)")
        if g.window is None:
            g(f'{b} = (v & (1 << 8 * {k}) - 1).to_bytes({k}, "little")')
            g(f"pos += 8 * {k}")
            g(f"v >>= 8 * {k}")
            return b
        # the bytes may run past the item's window: read them from data
        g("i = pos >> 3")
        with g.block("if pos & 7:"):
            g(f'{b} = (int.from_bytes(data[i:i + {k} + 1], "little")'
              f' >> (pos & 7) & (1 << 8 * {k}) - 1).to_bytes({k}, "little")')
        with g.block("else:"):
            g(f"{b} = data[i:i + {k}]")
        g(f"pos += 8 * {k}")
        g.stale = True
        return b


class _Certificate(_Layout):
    """The multi-signature, then an n-bit signer bitmap."""

    head = (8 * crypto.MULTISIG_BYTES, 1)

    def encode(self, g, value):
        g.uses_n = True
        cert, bitmap = g.local("cert"), g.local("bitmap")
        g(f"{cert} = {value}")
        MULTISIG.encode(g, f"{cert}.msig")
        g(f"{bitmap} = sum([1 << o for o in range(n) if o in {cert}.signers])")
        g.put(bitmap, "n")

    def decode(self, g):
        msig = MULTISIG.decode(g)
        bitmap, signers = g.local("bitmap"), g.local("signers")
        g.take(bitmap, (0, 1))
        g(f"{signers} = frozenset([o for o in range(n) if {bitmap} >> o & 1])")
        return f"{g.ref(Certificate)}({signers}, {msig})"


class _Proof(_Layout):
    """vnat(leaf index), vnat(path length), then each path entry bottom-up:
    a side bit and the sibling digest."""

    head = (2 * _VARINT_HEAD[0] + _MAX_PATH * _PATH_ENTRY, 0)

    def encode(self, g, value):
        proof, path = g.local("proof"), g.local("path")
        g(f"{proof} = {value}")
        g.vnat(f"{proof}.index")
        g(f"{path} = {proof}.path")
        g.vnat(f"len({path})")
        with g.block(f"for side, sib in {path}:"):
            g(f"if len(sib) != {crypto.DIGEST_BYTES}:"
              " raise ValueError(WRONG_LENGTH)")
            g.put('(int.from_bytes(sib, "little") << 1 | side & 1)',
                  str(_PATH_ENTRY))
            g.spill()

    def decode(self, g):
        index, count, bits = g.local("n"), g.local("n"), g.local("path")
        g.vnat(index)
        g.vnat(count)
        g(f"if {count} > {_MAX_PATH}: raise DecodeError(TOO_LARGE)")
        size = f"{_PATH_ENTRY} * {count}"
        g(f"if pos + {size} > end: raise DecodeError(EXHAUSTED)")
        g(f"{bits} = v & (1 << {size}) - 1")
        g(f"pos += {size}")
        g(f"v >>= {size}")
        digest = g.mask(8 * crypto.DIGEST_BYTES)
        return (f"{g.ref(MerkleProof)}({index}, tuple([({bits} >> j & 1, "
                f"({bits} >> j + 1 & {digest}).to_bytes("
                f'{crypto.DIGEST_BYTES}, "little")) for j in range('
                f"0, {size}, {_PATH_ENTRY})]))")


class _Partition(_Layout):
    """A batch's sender ids as an integer partition mu over the shared
    domain enumeration (x_1..x_|X|), the server ordinals:
    varrepr(d) ++ varrepr(w) ++ |mu(x_|X|)| .. |mu(x_1)| as d-bit ints
    ++ z_|mu| .. z_1 as w-bit ints, where the z_i enumerate each mu(x) in
    ascending order, concatenated in domain order; d = ceil(log2(|mu|+1)),
    w = ceil(log2(max mu + 1)), clamped to 1 when max mu = 0 so the varint
    stays in its domain.  The encoder takes mu only in the form
    `protocol.compress_ids` returns and a decoder yields: distinct domains
    in enumeration order, each with a non-empty group of distinct ascending
    indices.  A decoder refuses d = 0, w = 0 and indices that need more bits
    than remain before it reads one."""

    top_level = True

    def encode(self, g, value):
        g(f"mu = {value}")
        g("zs = [z for _, ix in mu for z in ix]")
        g("if not zs:"
          ' raise ValueError("partition must contain at least one integer")')
        g('if min(zs) < 0: raise ValueError("negative index")')
        g("ds = [d for d, _ in mu]")
        g("if ds[0] < 0 or ds[-1] >= ctx.n_servers or not all(map(lt, ds,"
          ' ds[1:])): raise ValueError("partition domains must ascend")')
        g("if not all([ix and all(map(lt, ix, ix[1:])) for _, ix in mu]):"
          ' raise ValueError("partition groups must be non-empty, ascending")')
        g("dw = len(zs).bit_length()")
        g("iw = max(max(zs).bit_length(), 1)")
        g.varint("dw")
        g.varint("iw")
        g("sizes = {d: len(ix) for d, ix in mu}")
        g("counts = [sizes.get(d, 0) for d in range(ctx.n_servers)]")
        # the first digit of the string is the most significant bit
        g('s = ("{:0%db}" % iw * len(zs) + "{:0%db}" % dw * len(counts))'
          ".format(*zs, *counts)")
        g.put("int(s, 2)", "len(s)")

    def decode(self, g):
        dw, iw = g.local("n"), g.local("n")
        g.vnat(dw, zero="partition count width 0")
        g(f"{dw} += 1")
        g.vnat(iw, zero="partition index width 0")
        g(f"{iw} += 1")
        g(f"cb = ctx.n_servers * {dw}")
        g("if pos + cb > end: raise DecodeError(EXHAUSTED)")
        g('s = format(v & (1 << cb) - 1, "0%db" % cb)')
        g(f"counts = [int(s[i:i + {dw}], 2) for i in range(0, cb, {dw})]")
        g("total = sum(counts)")
        g('if total < 1: raise DecodeError("empty partition")')
        g(f"zb = total * {iw}")
        with g.block("if pos + cb + zb > end:"):
            g('raise DecodeError("partition of %d indices of width %d"'
              f' " overruns the stream" % (total, {iw}))')
        g('s = format(v >> cb & (1 << zb) - 1, "0%db" % zb)')
        g(f"zs = [int(s[i:i + {iw}], 2) for i in range(0, zb, {iw})]")
        g("pos += cb + zb")
        g("v >>= cb + zb")
        groups = g.local("groups")
        g(f"{groups} = []")
        g("i = 0")
        with g.block("for d, y in enumerate(counts):"):
            with g.block("if y:"):
                g("group = set(zs[i:i + y])")
                g("if len(group) != y:"
                  ' raise DecodeError("repeated index in partition group")')
                g(f"{groups}.append((d, tuple(sorted(group))))")
                g("i += y")
        return f"tuple({groups})"


class _Fields(_Layout):
    """Several layouts in order: a dataclass's fields in declaration order,
    each annotated with its layout, or the given items of a tuple."""

    def __init__(self, build, *layouts: _Layout):
        if build is not tuple:
            self.names = [f.name for f in fields(build)]
            layouts = tuple(f.type for f in fields(build))
            for name, layout in zip(self.names, layouts):
                if not isinstance(layout, _Layout):
                    raise TypeError(f"{build.__name__}.{name} is annotated "
                                    f"{layout!r}, not a wire layout")
        self.build = build
        self.layouts = layouts
        self.head = _NONE
        for layout in layouts:
            self.head = _plus(self.head, layout.head)
        self.top_level = any(layout.top_level for layout in layouts)

    def encode(self, g, value):
        if self.build is tuple:
            values = [g.local("item") for _ in self.layouts]
            g(f"{', '.join(values)} = {value}")
        else:
            if not value.isidentifier():
                record = g.local("record")
                g(f"{record} = {value}")
                value = record
            values = [f"{value}.{name}" for name in self.names]
        for layout, item in zip(self.layouts, values):
            layout.encode(g, item)

    def decode(self, g):
        values = [layout.decode(g) for layout in self.layouts]
        if self.build is tuple:
            return f"({', '.join(values)},)"
        return f"{g.ref(self.build)}({', '.join(values)})"


class _Items(_Layout):
    """vnat(count), then the items; decodes to `build` (source with one {}
    for the list of items).  `ascending` writes the items sorted."""

    head = _VARINT_HEAD

    def __init__(self, item: _Layout, build: str = "tuple({})",
                 ascending: bool = False):
        if item.top_level:
            raise TypeError("a list item must have a bounded head")
        self.item = item
        self.build = build
        self.ascending = ascending

    def encode(self, g, value):
        items, item = g.local("items"), g.local("item")
        g(f"{items} = {value}")
        g.vnat(f"len({items})")
        order = f"sorted({items})" if self.ascending else items
        with g.block(f"for {item} in {order}:"):
            self.item.encode(g, item)
            g.spill()

    def decode(self, g):
        count = g.local("n")
        g.vnat(count)
        g(f"if {count} > MAX_BLOB_BYTES: raise DecodeError(TOO_LARGE)")
        return self.build.format(self.decode_items(g, count))

    def decode_items(self, g, count: str) -> str:
        """Decode `count` items into a list; returns its name."""
        items = g.local("items")
        g(f"{items} = []")
        head = self.item.head
        if head[1]:
            window = g.local("window")
            g(f"{window} = ({g.width(_plus(head, (15, 0)))}) >> 3")
        else:
            window = str((head[0] + 15) >> 3)
        outer = g.window
        with g.block(f"for _ in range({count}):"):
            g.window = window
            g.stale = True
            value = self.item.decode(g)
            g(f"{items}.append({value})")
        g.window = outer
        g.stale = True
        return items


class _Payloads(_Layout):
    """vnat(count), a uniform bit; if uniform, vnat(context length),
    vnat(message length) and every payload's bytes back to back; else a
    blob pair per payload.  So a batch of uniform payloads pays its framing
    once, not per payload."""

    top_level = True

    def encode(self, g, value):
        pl = g.local("pl")
        g(f"{pl} = {value}")
        g.vnat(f"len({pl})")
        g(f"uniform = (len({pl}) > 0 and len({{len(c) for c, _ in {pl}}})"
          f" == 1 and len({{len(m) for _, m in {pl}}}) == 1)")
        g.put("uniform", "1")
        with g.block("if uniform:"):
            g.vnat(f"len({pl}[0][0])")
            g.vnat(f"len({pl}[0][1])")
            g(f'block = b"".join(chain.from_iterable({pl}))')
            g.put('int.from_bytes(block, "little")', "8 * len(block)")
        with g.block("else:"):
            with g.block(f"for c, m in {pl}:"):
                BLOB.encode(g, "c")
                BLOB.encode(g, "m")
                g.spill()

    def decode(self, g):
        count, clen, mlen = g.local("n"), g.local("n"), g.local("n")
        g.vnat(count)
        g(f"if {count} > MAX_BLOB_BYTES: raise DecodeError(TOO_LARGE)")
        uniform, pl = g.local("uniform"), g.local("pl")
        g.take(uniform, (1, 0))
        with g.block(f"if {uniform}:"):
            for length in (clen, mlen):
                g.vnat(length)
                g(f"if {length} > MAX_BLOB_BYTES:"
                  " raise DecodeError(TOO_LARGE)")
            g(f"step = {clen} + {mlen}")
            with g.block("if not step:"):
                g(f'{pl} = ((b"", b""),) * {count}')
            with g.block("else:"):
                g(f"size = {count} * step")
                g("if pos + 8 * size > end: raise DecodeError(EXHAUSTED)")
                g('block = (v & (1 << 8 * size) - 1).to_bytes(size, "little")')
                g(f"{pl} = tuple([(block[i:i + {clen}], block[i + {clen}:"
                  "i + step]) for i in range(0, size, step)])")
                g("pos += 8 * size")
        with g.block("else:"):
            g(f"{pl} = tuple({_BLOB_PAIRS.decode_items(g, count)})")
        g.stale = True
        return pl


DIGEST = _Bytes(crypto.DIGEST_BYTES)
SIGNATURE = _Bytes(crypto.SIGNATURE_BYTES)
MULTISIG = _Bytes(crypto.MULTISIG_BYTES)
KEYCARD = _Bytes(crypto.PUBKEY_BYTES)
VNAT = _Vnat()
BLOB = _Blob()
CERTIFICATE = _Certificate()
PROOF = _Proof()
PARTITION = _Partition()
PAYLOADS = _Payloads()
ID = _Fields(tuple, VNAT, VNAT)
ID_SET = _Items(ID, "frozenset({})", ascending=True)
ID_TUPLE = _Items(ID, "tuple(sorted(frozenset({})))", ascending=True)
PATCHES = _Items(_Fields(tuple, ID_TUPLE, CERTIFICATE))
STRAGGLERS = _Items(_Fields(tuple, ID, SIGNATURE))
_BLOB_PAIRS = _Items(_Fields(tuple, BLOB, BLOB))


# ---------------------------------------------------------------------------
# message types: each field's annotation is its wire layout

@dataclass(frozen=True)
class Assignment:
    ident: ID
    keycard: KEYCARD
    certificate: CERTIFICATE


ASSIGNMENT = _Fields(Assignment)
ASSIGNMENTS = _Items(ASSIGNMENT)


# client <-> broker
@dataclass(frozen=True)
class Submission:
    assignment: ASSIGNMENT
    context: BLOB
    message: BLOB
    signature: SIGNATURE


@dataclass(frozen=True)
class Inclusion:
    context: BLOB
    root: DIGEST
    proof: PROOF


@dataclass(frozen=True)
class Reduction:
    root: DIGEST
    msig: MULTISIG


@dataclass(frozen=True)
class Completion:
    root: DIGEST
    certificate: CERTIFICATE
    exclusions: ID_SET


# broker <-> server
@dataclass(frozen=True)
class BatchMsg:
    compressed_ids: PARTITION  # ((domain, (index, ...)), ...) ascending
    payloads: PAYLOADS  # ((context, message), ...) in id order


@dataclass(frozen=True)
class BatchAcquired:
    root: DIGEST
    unknowns: ID_TUPLE  # sorted ids


@dataclass(frozen=True)
class Signatures:
    root: DIGEST
    assignments: ASSIGNMENTS  # for the unknowns
    msig: MULTISIG  # aggregate over [Reduction, root]
    stragglers: STRAGGLERS  # ((id, signature), ...) sorted by id


@dataclass(frozen=True)
class WitnessShard:
    root: DIGEST
    shard: MULTISIG


@dataclass(frozen=True)
class Witness:
    root: DIGEST
    certificate: CERTIFICATE


@dataclass(frozen=True)
class EquivocationProof:
    conflict_root: DIGEST
    conflict_witness: CERTIFICATE
    proof: PROOF
    conflict_message: BLOB


CONFLICTS = _Items(_Fields(tuple, ID, _Fields(EquivocationProof)))


@dataclass(frozen=True)
class CommitShard:
    root: DIGEST
    conflicts: CONFLICTS  # ((id, EquivocationProof), ...) sorted by id
    shard: MULTISIG


@dataclass(frozen=True)
class Commit:
    root: DIGEST
    patches: PATCHES  # ((exception ids tuple, Certificate), ...)


@dataclass(frozen=True)
class CompletionShard:
    root: DIGEST
    shard: MULTISIG


# server <-> server totality fallback
@dataclass(frozen=True)
class OfferTotality:
    root: DIGEST
    exclusions: ID_SET


@dataclass(frozen=True)
class AcceptTotality:
    root: DIGEST
    exclusions: ID_SET


@dataclass(frozen=True)
class Totality:
    root: DIGEST
    assignments: ASSIGNMENTS
    compressed_ids: PARTITION
    payloads: PAYLOADS
    patches: PATCHES


# directory signup
@dataclass(frozen=True)
class Signup:
    pass


@dataclass(frozen=True)
class Ranked:
    domain: VNAT  # ordinal of the server whose log ranked the sender's key


@dataclass(frozen=True)
class Assigner:
    domain: VNAT


@dataclass(frozen=True)
class AssignShard:
    index: VNAT
    shard: MULTISIG


# FIFO broadcast among servers (double-echo)
@dataclass(frozen=True)
class FifoSend:
    seq: VNAT
    payload: BLOB


@dataclass(frozen=True)
class FifoEcho:
    origin: VNAT
    seq: VNAT
    payload: BLOB


@dataclass(frozen=True)
class FifoReady:
    origin: VNAT
    seq: VNAT
    payload: BLOB


# the message table: a message's tag is its index here
MESSAGE_TYPES = (
    Submission, Inclusion, Reduction, BatchMsg, BatchAcquired, Signatures,
    WitnessShard, Witness, CommitShard, Commit, CompletionShard, Completion,
    OfferTotality, AcceptTotality, Totality, Signup, Ranked, Assigner,
    AssignShard, FifoSend, FifoEcho, FifoReady)
# id assignment and its FIFO broadcast, which cost accounting counts apart
DIRECTORY_TYPES = (Signup, Ranked, Assigner, AssignShard, FifoSend, FifoEcho,
                   FifoReady)


def _sources(tag: int, cls) -> tuple[str, dict]:
    """The source of the encoder and the decoder of one message type, and
    the names it refers to."""
    names = dict(_NAMES)
    message = _Fields(cls)
    encoder, decoder = _Encoder(names, tag), _Decoder(names)
    message.encode(encoder, "msg")
    value = message.decode(decoder)
    return (encoder.source(f"encode_{cls.__name__}")
            + decoder.source(f"decode_{cls.__name__}", value)), names


def _compile(tag: int, cls):
    """(encode(ctx, msg) -> bytes, decode(ctx, data, end) -> msg) of one
    message type; `decode` reads the stream bits [8, end) of data."""
    source, names = _sources(tag, cls)
    exec(compile(source, f"<wire codec of {cls.__name__}>", "exec"), names)
    return names[f"encode_{cls.__name__}"], names[f"decode_{cls.__name__}"]


_CODECS = [_compile(tag, cls) for tag, cls in enumerate(MESSAGE_TYPES)]
_ENCODERS = {cls: encode for cls, (encode, _) in zip(MESSAGE_TYPES, _CODECS)}
_DECODERS = [decode for _, decode in _CODECS]


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
    data = _ENCODERS[type(msg)](ctx, msg)
    ctx.last = (msg, data)
    return data


def deserialize(ctx: WireContext, data: bytes):
    if not data:
        raise DecodeError(EXHAUSTED)
    if data[0] >= len(_DECODERS):
        raise DecodeError("unknown tag")
    try:
        return _DECODERS[data[0]](ctx, data, 8 * len(data))
    except (ValueError, IndexError, OverflowError) as exc:
        raise DecodeError(str(exc)) from exc


# canonical leaf encoding for the batch Merkle tree
def leaf_bytes(ident: Id, context: bytes, message: bytes) -> bytes:
    return (b"%d:%d|%d|" % (ident[0], ident[1], len(context))
            + context + b"|" + message)
