"""The FIFO broadcast endpoint kept as the reference the one in
`batchcast.fifocast` is checked against (tests/test_fifocast.py).

This is `FifoBroadcast` as it was when each endpoint kept every slot it saw
in three sets: `echoed` (echo on the first Send of each (origin, seq), in
any order), `ready_sent`, and `done`, with held-back payloads buffered per
origin.  Its endpoint echoes a Send whatever seq came before it.
"""

from __future__ import annotations

from batchcast.procs import ProcessKind, servers
from batchcast.wire import FifoEcho, FifoReady, FifoSend


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
        # (origin, seq) -> {payload: {ordinal}}, until (origin, seq) is done
        self.echoes: dict = {}
        self.readys: dict = {}
        self.done: set = set()          # (origin, seq) brb-delivered
        self.fifo_next: dict = {}       # origin -> next seq to deliver
        self.fifo_buffer: dict = {}     # origin -> {seq: payload}

    def broadcast(self, ctx, payload: bytes):
        seq = self.next_seq
        self.next_seq += 1
        ctx.send_all(self.servers, FifoSend(seq, payload))

    def handle(self, ctx, src, msg) -> bool:
        """Consume a fifo message; returns False if msg is not one."""
        if src.kind != ProcessKind.SERVER:
            return isinstance(msg, (FifoSend, FifoEcho, FifoReady))
        if isinstance(msg, FifoSend):
            key = (src.ordinal, msg.seq)
            if key not in self.echoed:
                self.echoed.add(key)
                ctx.send_all(self.servers,
                             FifoEcho(src.ordinal, msg.seq, msg.payload))
            return True
        # A done slot has sent its Ready (delivery needs 2f+1 Readys, which
        # first reach the f+1 rule), so a late Echo or Ready changes nothing.
        if isinstance(msg, FifoEcho):
            key = (msg.origin, msg.seq)
            if key in self.done:
                return True
            echoes = self.echoes.setdefault(key, {}).setdefault(msg.payload,
                                                                set())
            echoes.add(src.ordinal)
            if len(echoes) >= 2 * self.f + 1:
                self._send_ready(ctx, msg.origin, msg.seq, msg.payload)
            return True
        if isinstance(msg, FifoReady):
            key = (msg.origin, msg.seq)
            if key in self.done:
                return True
            readys = self.readys.setdefault(key, {}).setdefault(msg.payload,
                                                                set())
            readys.add(src.ordinal)
            if len(readys) >= self.f + 1:
                self._send_ready(ctx, msg.origin, msg.seq, msg.payload)
            if len(readys) >= 2 * self.f + 1:
                self.done.add(key)
                self.echoes.pop(key, None)
                del self.readys[key]
                self._fifo_deliver(ctx, msg.origin, msg.seq, msg.payload)
            return True
        return False

    def _send_ready(self, ctx, origin, seq, payload):
        if (origin, seq) in self.ready_sent:
            return
        self.ready_sent.add((origin, seq))
        ctx.send_all(self.servers, FifoReady(origin, seq, payload))

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
