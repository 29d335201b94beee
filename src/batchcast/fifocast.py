"""Byzantine fault-tolerant FIFO reliable broadcast among servers.

Bracha's unauthenticated double echo, keyed by (origin, seq): echo each
origin's Sends in seq order, promote to Ready at 2f+1 matching Echoes or f+1
matching Readys, deliver at 2f+1 matching Readys.  FIFO order is obtained by
holding back a delivered slot until its origin's earlier ones are out.  Only
state a later message can change is kept: nothing of a delivered slot.
"""

from __future__ import annotations

from .procs import ProcessKind
from .wire import FifoEcho, FifoReady, FifoSend

_SERVER = int(ProcessKind.SERVER)


class FifoBroadcast:
    """One server's endpoint of the FIFO broadcast primitive.

    `deliver` is called as deliver(ctx, origin_ordinal, payload) in per-origin
    sequence order.  The servers and thresholds are the context's.
    """

    def __init__(self, deliver):
        self.deliver = deliver
        self.next_seq = 0  # own broadcasts
        self.next_echo: dict = {}   # origin -> seq of the next Send to echo
        self.fifo_next: dict = {}   # origin -> next seq to deliver
        # (origin, seq) -> {payload: bitmask of the voters' ordinals}, until
        # (origin, seq) is delivered
        self.echoes: dict = {}
        self.readys: dict = {}
        self.ready_sent: set = set()  # (origin, seq) whose Ready went out
        self.held: dict = {}  # (origin, seq) -> payload, done out of order

    def broadcast(self, ctx, payload: bytes):
        seq = self.next_seq
        self.next_seq += 1
        ctx.send_all(ctx.servers, FifoSend(seq, payload))

    def handle(self, ctx, src, msg):
        """A FIFO message; one from a sender that is no server is ignored."""
        if src.kind != _SERVER:
            return
        if type(msg) is FifoSend:
            # links are FIFO, so a correct origin's Sends arrive in order
            if msg.seq == self.next_echo.get(src.ordinal, 0):
                self.next_echo[src.ordinal] = msg.seq + 1
                ctx.send_all(ctx.servers,
                             FifoEcho(src.ordinal, msg.seq, msg.payload))
            return
        # A delivered slot has sent its Ready (delivery needs 2f+1 Readys,
        # which first reach the f+1 rule), so a late message changes nothing.
        key = (msg.origin, msg.seq)
        if msg.seq < self.fifo_next.get(msg.origin, 0) or key in self.held:
            return
        ready = type(msg) is not FifoEcho
        slots = self.readys if ready else self.echoes
        votes = slots.get(key) or slots.setdefault(key, {})  # never empty
        voters = votes[msg.payload] = (votes.get(msg.payload, 0)
                                       | 1 << src.ordinal)
        count = voters.bit_count()
        if count >= (ctx.plurality if ready else ctx.quorum):
            self._send_ready(ctx, key, msg.payload)
        if ready and count >= ctx.quorum:
            self.echoes.pop(key, None)
            del self.readys[key]
            self.ready_sent.discard(key)
            self._fifo_deliver(ctx, msg.origin, msg.seq, msg.payload)

    def _send_ready(self, ctx, key, payload):
        if key not in self.ready_sent:
            self.ready_sent.add(key)
            ctx.send_all(ctx.servers, FifoReady(*key, payload))

    def _fifo_deliver(self, ctx, origin, seq, payload):
        held = self.held
        held[origin, seq] = payload
        nxt = self.fifo_next.get(origin, 0)
        while (origin, nxt) in held:
            item = held.pop((origin, nxt))
            ctx.emit("fb_deliver", origin=origin, seq=nxt,
                     payload=item.hex())
            self.deliver(ctx, origin, item)
            nxt += 1
        self.fifo_next[origin] = nxt
