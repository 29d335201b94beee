#!/usr/bin/env python3
"""Dissect the batch message's bit budget.

The batch is the only server-bound message that grows with the payload
count: compressed sender ids (a partition over the server domains) plus the
raw payload block.  Everything else the protocol sends is constant-sized, so
per-payload cost converges to the id bits plus the payload bits.
"""

from batchcast import wire
from batchcast.protocol import compress_ids

M = 1024
ctx = wire.WireContext(4)
ids = sorted((j % 4, j // 4) for j in range(M))
payloads = tuple((j.to_bytes(4, "big"), (j ^ 0xFFFF).to_bytes(4, "big"))
                 for j in range(M))

# the partition's closed-form length, M indices below M / 4 over 4 domains:
# w bits per index, d bits per domain count, and both widths as varints
w = max(i for _, i in ids).bit_length()
d = M.bit_length()
id_bits = M * w + 4 * d + 2 * w.bit_length() + 2 * d.bit_length()
batch = wire.BatchMsg(compress_ids(ids), payloads)
total_bits = 8 * len(wire.serialize(ctx, batch))
payload_bits = 64 * M

print(f"batch of {M} payloads, 8 bytes each")
print(f"  compressed ids : {id_bits} bits ({id_bits / M:.2f}/payload)")
print(f"  payload bodies : {payload_bits} bits (64/payload)")
print(f"  framing + tag  : {total_bits - id_bits - payload_bits} bits total")
print(f"  whole message  : {total_bits} bits ({total_bits / M:.2f}/payload)")
print(f"  oracle bound   : {10 + 64} bits/payload")

shard = wire.CommitShard(b"\x00" * 32, (), b"\x00" * 48)
print(f"\nempty-exception commit shard: {8 * len(wire.serialize(ctx, shard))}"
      " bits, independent of the batch size")
