"""Byzantine fault-tolerant FIFO reliable broadcast among servers.

Bracha's unauthenticated double echo, keyed by (origin, seq): echo on the
first Send, promote to Ready at 2f+1 matching Echoes or f+1 matching Readys,
deliver at 2f+1 matching Readys.  FIFO order is obtained by holding back
out-of-order sequence numbers per origin.
"""

from __future__ import annotations

from .procs import ProcessKind, servers
from .wire import FifoEcho, FifoReady, FifoSend


class FifoBroadcast:
    """One server's endpoint of the FIFO broadcast primitive.

    `deliver` is called as deliver(ctx, origin_ordinal, payload) in per-origin
    sequence order.
    """

    def __init__(self, n_servers: int, f: int, deliver):
        self.servers = servers(n_servers)
        self.f = f
        self.deliver = deliver
        self.next_seq = 0  # own broadcasts
        self.echoed: set = set()        # (origin, seq)
        self.ready_sent: set = set()    # (origin, seq)
        self.echoes: dict = {}          # (origin, seq, payload) -> {ordinal}
        self.readys: dict = {}          # (origin, seq, payload) -> {ordinal}
        self.done: set = set()          # (origin, seq) brb-delivered
        self.fifo_next: dict = {}       # origin -> next seq to deliver
        self.fifo_buffer: dict = {}     # origin -> {seq: payload}

    def _send_all(self, ctx, msg):
        for dst in self.servers:
            ctx.send(dst, msg)

    def broadcast(self, ctx, payload: bytes):
        seq = self.next_seq
        self.next_seq += 1
        self._send_all(ctx, FifoSend(seq, payload))

    def handle(self, ctx, src, msg) -> bool:
        """Consume a fifo message; returns False if msg is not one."""
        if src.kind != ProcessKind.SERVER:
            return isinstance(msg, (FifoSend, FifoEcho, FifoReady))
        if isinstance(msg, FifoSend):
            key = (src.ordinal, msg.seq)
            if key not in self.echoed:
                self.echoed.add(key)
                self._send_all(ctx, FifoEcho(src.ordinal, msg.seq,
                                             msg.payload))
            return True
        if isinstance(msg, FifoEcho):
            slot = (msg.origin, msg.seq, msg.payload)
            self.echoes.setdefault(slot, set()).add(src.ordinal)
            if len(self.echoes[slot]) >= 2 * self.f + 1:
                self._send_ready(ctx, msg.origin, msg.seq, msg.payload)
            return True
        if isinstance(msg, FifoReady):
            slot = (msg.origin, msg.seq, msg.payload)
            self.readys.setdefault(slot, set()).add(src.ordinal)
            if len(self.readys[slot]) >= self.f + 1:
                self._send_ready(ctx, msg.origin, msg.seq, msg.payload)
            if (len(self.readys[slot]) >= 2 * self.f + 1
                    and (msg.origin, msg.seq) not in self.done):
                self.done.add((msg.origin, msg.seq))
                self._fifo_deliver(ctx, msg.origin, msg.seq, msg.payload)
            return True
        return False

    def _send_ready(self, ctx, origin, seq, payload):
        if (origin, seq) in self.ready_sent:
            return
        self.ready_sent.add((origin, seq))
        self._send_all(ctx, FifoReady(origin, seq, payload))

    def _fifo_deliver(self, ctx, origin, seq, payload):
        self.fifo_buffer.setdefault(origin, {})[seq] = payload
        nxt = self.fifo_next.get(origin, 0)
        buf = self.fifo_buffer[origin]
        while nxt in buf:
            item = buf.pop(nxt)
            ctx.emit("fb_deliver", origin=origin, seq=nxt,
                     payload=item.hex())
            self.deliver(ctx, origin, item)
            nxt += 1
        self.fifo_next[origin] = nxt
