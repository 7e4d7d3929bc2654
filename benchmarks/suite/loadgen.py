"""HTTP load from one selector thread over a few keep-alive connections.

Requests are precomputed byte strings indexed by a key, and so are the
expected response bodies; every response is checked byte for byte. Both
loops are driven by one ``selectors`` loop in the calling thread.

- :meth:`HttpLoad.open_loop` sends on a schedule whether or not earlier
  responses came back (HTTP/1.1 pipelining). Each request is timed from
  its **due** time, not from when its bytes were written, so a stalled
  generator cannot hide the wait it caused (coordinated omission); how
  late the generator ran is recorded per request.
- :meth:`HttpLoad.closed_loop` keeps ``depth`` requests outstanding per
  connection and sends the next one only when a response arrives.
"""

from __future__ import annotations

import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field

#: How long a phase may keep waiting for stragglers before the harness
#: gives up on them, counts them as failed, and reconnects.
SETTLE_BOUND_S = 15.0


def post(path: str, body: bytes) -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii") + body


@dataclass
class Phase:
    """Outcome of one load phase; times are ``perf_counter`` seconds."""

    start: float
    end: float  # scheduled end of sending
    done: list = field(default_factory=list)  # (key, due, sent, done) of correct responses
    lateness: list = field(default_factory=list)  # sent - due, seconds, per request
    mismatched: int = 0
    errors: int = 0  # non-200, connection failures, abandoned stragglers

    @property
    def attempted(self) -> int:
        return len(self.done) + self.mismatched + self.errors

    def latencies_ms(self, since: str = "due") -> list[float]:
        col = 1 if since == "due" else 2
        return [(rec[3] - rec[col]) * 1e3 for rec in self.done]


class _Conn:
    __slots__ = ("sock", "out", "buf", "pending", "writing")

    def __init__(self, sock):
        self.sock = sock
        self.out = bytearray()
        self.buf = bytearray()
        self.pending: deque = deque()
        self.writing = False


class HttpLoad:
    """Keep-alive connections to one server plus the request/answer tables."""

    def __init__(self, address, n_conns: int, requests: list[bytes], expected: list[bytes]):
        self.address = address
        self.requests = requests
        self.expected = expected
        self.sel = selectors.DefaultSelector()
        self.conns = [self._connect() for _ in range(n_conns)]
        self.phase: Phase | None = None

    def _connect(self) -> _Conn:
        sock = socket.create_connection(self.address, timeout=30)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        conn = _Conn(sock)
        self.sel.register(sock, selectors.EVENT_READ, conn)
        return conn

    def close(self) -> None:
        for conn in self.conns:
            self.sel.unregister(conn.sock)
            conn.sock.close()
        self.sel.close()

    # -- socket plumbing -----------------------------------------------------

    def _send(self, conn: _Conn, key: int, due: float) -> None:
        conn.out += self.requests[key]
        sent = time.perf_counter()
        conn.pending.append((key, due, sent))
        self.phase.lateness.append(sent - due)
        self._flush(conn)

    def _flush(self, conn: _Conn) -> None:
        try:
            sent = conn.sock.send(conn.out)
            del conn.out[:sent]
        except BlockingIOError:
            pass
        except OSError:
            self._fail(conn)
            return
        want = bool(conn.out)
        if want != conn.writing:
            conn.writing = want
            mask = selectors.EVENT_READ | (selectors.EVENT_WRITE if want else 0)
            self.sel.modify(conn.sock, mask, conn)

    def _fail(self, conn: _Conn) -> None:
        """Count everything outstanding on ``conn`` as failed; reconnect."""
        self.phase.errors += len(conn.pending)
        self.sel.unregister(conn.sock)
        conn.sock.close()
        fresh = self._connect()
        self.conns[self.conns.index(conn)] = fresh

    def _read(self, conn: _Conn) -> None:
        try:
            chunk = conn.sock.recv(1 << 18)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""
        if not chunk:
            self._fail(conn)
            return
        buf = conn.buf
        buf += chunk
        phase = self.phase
        while True:
            head_end = buf.find(b"\r\n\r\n")
            if head_end < 0:
                return
            head = bytes(buf[:head_end]).lower()
            at = head.find(b"content-length:")
            length = int(head[at + 15 :].split(b"\r\n", 1)[0]) if at >= 0 else 0
            total = head_end + 4 + length
            if len(buf) < total:
                return
            now = time.perf_counter()
            status = head[9:12]
            body = bytes(buf[head_end + 4 : total])
            del buf[:total]
            key, due, sent = conn.pending.popleft()
            if status != b"200":
                phase.errors += 1
            elif body == self.expected[key]:
                phase.done.append((key, due, sent, now))
            else:
                phase.mismatched += 1

    def _poll(self, timeout: float) -> None:
        for sel_key, mask in self.sel.select(timeout):
            conn = sel_key.data
            if mask & selectors.EVENT_READ:
                self._read(conn)
            if mask & selectors.EVENT_WRITE and conn in self.conns:
                self._flush(conn)

    def _outstanding(self) -> int:
        return sum(len(conn.pending) for conn in self.conns)

    def _settle(self) -> None:
        """Wait (bounded) until every sent request has been answered."""
        deadline = time.perf_counter() + SETTLE_BOUND_S
        while self._outstanding() and time.perf_counter() < deadline:
            self._poll(0.05)
        for conn in list(self.conns):
            if conn.pending:
                self._fail(conn)

    # -- the two loops -------------------------------------------------------

    def open_loop(self, keys, offsets) -> Phase:
        """Send ``keys[i]`` at ``start + offsets[i]``, round-robin over the
        connections; returns once every response arrived (bounded)."""
        start = time.perf_counter() + 0.002
        phase = self.phase = Phase(start, start + (offsets[-1] if offsets else 0.0))
        n, n_conns = len(offsets), len(self.conns)
        i = 0
        while i < n:
            now = time.perf_counter()
            while i < n and start + offsets[i] <= now:
                self._send(self.conns[i % n_conns], keys[i], start + offsets[i])
                i += 1
            if i < n:
                self._poll(max(0.0, start + offsets[i] - time.perf_counter()))
        self._settle()
        return phase

    def closed_loop(self, next_key, depth: int, duration_s: float) -> Phase:
        """``depth`` outstanding requests per connection for ``duration_s``."""
        start = time.perf_counter()
        phase = self.phase = Phase(start, start + duration_s)
        while True:
            now = time.perf_counter()
            if now >= phase.end:
                break
            for conn in self.conns:
                while len(conn.pending) < depth:
                    self._send(conn, next_key(), time.perf_counter())
            self._poll(min(0.05, phase.end - now))
        self._settle()
        return phase
