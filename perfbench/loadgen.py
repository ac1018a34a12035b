"""Single-process, single-thread load generator over binary frames.

Requests arrive here pre-encoded; the loops only send bytes, read bytes
and parse the 16-byte frame header of docs/PROTOCOL.md.  Nothing here
imports ``repro``, and callers switch the garbage collector off around
a phase, so the generator's own cost stays small and steady.

Replies on one connection come back in request order (the server serves
a connection's frames one at a time), so each connection matches
replies first-in first-out and checks the echoed request id.
"""

from __future__ import annotations

import selectors
import socket
import struct
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

HEADER = struct.Struct("!BBBBIQ")
HEADER_SIZE = HEADER.size
_U32 = struct.Struct("!I")
FT_OK = 0x80
FT_DRAWS = 0x81


@dataclass
class Req:
    """One pre-encoded request."""

    rid: int
    conn: int
    frame: bytes
    #: Draws asked for; 0 marks an UPDATE (answered by an OK frame).
    n: int


@dataclass
class PhaseLog:
    """What one phase sent, received and timed."""

    attempted: int = 0
    failed: int = 0
    #: Open loop: reply time minus due time, ms, by request kind.
    draw_ms: List[float] = field(default_factory=list)
    update_ms: List[float] = field(default_factory=list)
    #: Open loop: send time minus due time, ms.
    late_ms: List[float] = field(default_factory=list)
    #: Closed loop: completion times, seconds from the phase start.
    done_at: List[float] = field(default_factory=list)
    #: Requests sent per connection, in order.
    sent: List[int] = field(default_factory=list)
    #: Reply bodies of the requests asked to be kept, by request id.
    kept: Dict[int, bytes] = field(default_factory=dict)
    wall_s: float = 0.0
    cpu_s: float = 0.0

    @classmethod
    def merge(cls, logs: Sequence["PhaseLog"]) -> "PhaseLog":
        """One log for consecutive segments of a phase (``done_at`` dropped:
        each segment counts it from its own start)."""
        out = cls(sent=[sum(n) for n in zip(*(log.sent for log in logs))])
        for log in logs:
            out.attempted += log.attempted
            out.failed += log.failed
            out.draw_ms += log.draw_ms
            out.update_ms += log.update_ms
            out.late_ms += log.late_ms
            out.kept.update(log.kept)
            out.wall_s += log.wall_s
            out.cpu_s += log.cpu_s
        return out


def connect(port: int, count: int) -> List[socket.socket]:
    socks = []
    for _ in range(count):
        s = socket.create_connection(("127.0.0.1", port), timeout=30.0)
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        s.settimeout(None)
        socks.append(s)
    return socks


def rpc(sock: socket.socket, frames: Sequence[bytes], timeout: float = 60.0) -> List[Tuple[int, int, bytes]]:
    """Send frames, block until as many replies arrive: ``(ftype, rid, body)``."""
    sock.settimeout(timeout)
    try:
        sock.sendall(b"".join(frames))
        buf = bytearray()
        out = []
        while len(out) < len(frames):
            data = sock.recv(1 << 18)
            if not data:
                raise ConnectionError("server closed the connection")
            buf += data
            while len(buf) >= HEADER_SIZE:
                _m, _v, ftype, _f, blen, rid = HEADER.unpack_from(buf, 0)
                if len(buf) < HEADER_SIZE + blen:
                    break
                out.append((ftype, rid, bytes(buf[HEADER_SIZE : HEADER_SIZE + blen])))
                del buf[: HEADER_SIZE + blen]
        return out
    finally:
        sock.settimeout(None)


class _Conns:
    """Per-connection receive buffers and in-flight queues of one phase."""

    def __init__(self, socks, log: PhaseLog, keep: Set[int]) -> None:
        self.socks = socks
        self.log = log
        self.keep = keep
        self.bufs = [bytearray() for _ in socks]
        self.fifos: List[deque] = [deque() for _ in socks]
        self.outstanding = 0
        self.broken = False
        # select(2) takes a microsecond timeout; epoll and poll round it up
        # to whole milliseconds, which would make every send ~0.5 ms late.
        self.sel = selectors.SelectSelector()
        for i, s in enumerate(socks):
            self.sel.register(s, selectors.EVENT_READ, i)

    def send(self, req: Req, due: float) -> bool:
        try:
            self.socks[req.conn].sendall(req.frame)
        except OSError:
            self.broken = True
            return False
        self.fifos[req.conn].append((req, due))
        self.outstanding += 1
        self.log.sent[req.conn] += 1
        return True

    def poll(self, timeout: float, on_reply) -> None:
        """Wait up to ``timeout`` and hand each complete reply to ``on_reply``.

        ``on_reply(req, due, ok, now)`` runs once per reply.
        """
        log = self.log
        for key, _ in self.sel.select(timeout):
            c = key.data
            try:
                data = self.socks[c].recv(1 << 18)
            except OSError:
                data = b""
            if not data:
                self.broken = True
                return
            now = time.perf_counter()
            buf = self.bufs[c]
            buf += data
            fifo = self.fifos[c]
            off = 0
            size = len(buf)
            while size - off >= HEADER_SIZE:
                _m, _v, ftype, _f, blen, rid = HEADER.unpack_from(buf, off)
                end = off + HEADER_SIZE + blen
                if size < end:
                    break
                if not fifo:  # a frame nobody asked for
                    log.failed += 1
                    off = end
                    continue
                req, due = fifo.popleft()
                self.outstanding -= 1
                if req.n:
                    ok = ftype == FT_DRAWS and _U32.unpack_from(buf, off + 17)[0] == req.n
                else:
                    ok = ftype == FT_OK
                ok = ok and rid == req.rid
                if req.rid in self.keep:
                    log.kept[req.rid] = bytes(buf[off + HEADER_SIZE : end])
                if not ok:
                    log.failed += 1
                on_reply(req, due, ok, now)
                off = end
            del buf[:off]

    def close(self) -> None:
        # Requests never answered count as failed.
        self.log.failed += self.outstanding
        self.sel.close()


def open_loop(
    socks: Sequence[socket.socket],
    schedule: Sequence[Tuple[float, Req]],
    keep: Set[int] = frozenset(),
    drain_s: float = 10.0,
) -> PhaseLog:
    """Send each request at its due time (seconds from the phase start).

    Latency runs from the due time, not the send time, so a stall also
    charges the requests it delayed; ``late_ms`` records how far behind
    the schedule the generator itself ran.
    """
    log = PhaseLog(attempted=len(schedule), sent=[0] * len(socks))
    conns = _Conns(socks, log, keep)
    clock = time.perf_counter

    def on_reply(req, due, ok, now):
        if ok:
            (log.draw_ms if req.n else log.update_ms).append((now - due) * 1e3)

    cpu0 = time.process_time()
    t0 = clock() + 0.005
    i, total = 0, len(schedule)
    drain_deadline = None
    try:
        while not conns.broken:
            now = clock()
            while i < total and t0 + schedule[i][0] <= now:
                due = t0 + schedule[i][0]
                if not conns.send(schedule[i][1], due):
                    break
                now = clock()
                log.late_ms.append((now - due) * 1e3)
                i += 1
            if i < total:
                timeout = max(0.0, t0 + schedule[i][0] - clock())
            elif not conns.outstanding:
                break
            else:
                if drain_deadline is None:
                    drain_deadline = clock() + drain_s
                timeout = drain_deadline - clock()
                if timeout <= 0:
                    break
            conns.poll(timeout, on_reply)
    finally:
        conns.close()
    log.failed += total - i  # never sent: the connection broke
    log.wall_s = clock() - t0
    log.cpu_s = time.process_time() - cpu0
    return log


def closed_loop(
    socks: Sequence[socket.socket],
    sequences: Sequence[Sequence[Req]],
    depth: int,
    seconds: float,
    keep: Set[int] = frozenset(),
    drain_s: float = 10.0,
) -> PhaseLog:
    """Keep ``depth`` requests in flight per connection for ``seconds``.

    Each reply releases the connection's next request until the time is
    up; the phase then waits for the requests still in flight.
    """
    log = PhaseLog(sent=[0] * len(socks))
    conns = _Conns(socks, log, keep)
    clock = time.perf_counter
    cursors = [0] * len(socks)

    def send_next(c: int) -> None:
        seq = sequences[c]
        if cursors[c] < len(seq) and conns.send(seq[cursors[c]], 0.0):
            cursors[c] += 1
            log.attempted += 1

    cpu0 = time.process_time()
    t0 = clock()
    t_end = t0 + seconds

    def on_reply(req, due, ok, now):
        log.done_at.append(now - t0)
        if now < t_end:
            send_next(req.conn)

    try:
        for c in range(len(socks)):
            for _ in range(depth):
                send_next(c)
        while not conns.broken and clock() < t_end and conns.outstanding:
            conns.poll(t_end - clock(), on_reply)
        drain_deadline = clock() + drain_s
        while not conns.broken and conns.outstanding and clock() < drain_deadline:
            conns.poll(drain_deadline - clock(), on_reply)
    finally:
        conns.close()
    log.wall_s = min(clock(), t_end) - t0
    log.cpu_s = time.process_time() - cpu0
    return log
