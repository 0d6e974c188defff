"""A ``repro serve`` subprocess and a single-process load generator.

The generator keeps at most ``nproc`` persistent keep-alive connections.
Its open loop sends request *i* at its due time ``t0 + i / rate`` on
whichever connection is free and times the request from that due time,
so a stall also charges the requests queued behind it.  It reports its
own lateness -- how long after a request was due, with a connection
free, it actually sent it.  Server-side numbers come only from
``GET /metrics``.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

#: Below this many seconds to the next due time the loop polls instead
#: of sleeping in ``select``, whose timeout has 1 ms granularity.
_SPIN_S = 0.0015

#: Give up on a server that sends nothing for this long.
_STALL_S = 60.0


class ServeError(RuntimeError):
    pass


class Response:
    __slots__ = ("status", "headers", "body")

    def __init__(self, status: int, headers: dict, body: bytes) -> None:
        self.status = status
        self.headers = headers
        self.body = body

    def json(self):
        return json.loads(self.body)


class Conn:
    """One keep-alive HTTP/1.1 connection with incremental parsing."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=_STALL_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def close(self) -> None:
        self.sock.close()

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def _parse(self):
        head_end = self.buf.find(b"\r\n\r\n")
        if head_end < 0:
            return None
        lines = self.buf[:head_end].decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            k, _, v = line.partition(":")
            headers[k.strip().lower()] = v.strip()
        n = int(headers.get("content-length", "0"))
        end = head_end + 4 + n
        if len(self.buf) < end:
            return None
        body = self.buf[head_end + 4:end]
        self.buf = self.buf[end:]
        return Response(int(lines[0].split(" ", 2)[1]), headers, body)

    def on_readable(self):
        """Read what arrived; a complete Response or None."""
        data = self.sock.recv(1 << 20)
        if not data:
            raise ServeError("server closed the connection")
        self.buf += data
        return self._parse()

    def request(self, data: bytes) -> Response:
        """Closed-loop round trip."""
        self.send(data)
        while True:
            resp = self.on_readable()
            if resp is not None:
                return resp


def http_request(method: str, path: str, body: dict | None = None) -> bytes:
    payload = b"" if body is None else json.dumps(body).encode()
    head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n")
    return head.encode() + payload


GET_HEALTHZ = http_request("GET", "/healthz")
GET_METRICS = http_request("GET", "/metrics")


class Server:
    """``python -m repro.cli serve --jobs 1`` on a free port; it and its
    pool worker inherit this process's CPU affinity."""

    def __init__(self, root: Path, cache_dir: Path,
                 log_path: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--jobs", "1",
             "--host", "127.0.0.1", "--port", "0",
             "--cache-dir", str(cache_dir)],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log)
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            if not sel.select(_STALL_S):
                raise ServeError("server printed no listening line")
        finally:
            sel.close()
        line = self.proc.stdout.readline().decode()
        if "listening on http://" not in line:
            raise ServeError(f"unexpected server banner {line!r}")
        return int(line.split("listening on http://", 1)[1]
                   .split()[0].rsplit(":", 1)[1])

    def connect(self) -> Conn:
        return Conn(self.port)

    def wait_healthy(self, conn: Conn) -> None:
        if conn.request(GET_HEALTHZ).status != 200:
            raise ServeError("/healthz did not answer 200")

    def metrics(self, conn: Conn) -> dict:
        resp = conn.request(GET_METRICS)
        if resp.status != 200:
            raise ServeError(f"/metrics answered {resp.status}")
        return resp.json()["metrics"]

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then wait; kill if stuck."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def open_loop(conns: list[Conn], requests: list[bytes], rate: float,
              check) -> dict:
    """Send ``requests`` at ``rate`` per second over ``conns``.

    ``check(i, response)`` returns True for a correct reply.  Returns
    per-request latency from due time and the generator's lateness, both
    in seconds, plus the number of failed requests.
    """
    n = len(requests)
    sel = selectors.DefaultSelector()
    for c in conns:
        sel.register(c.sock, selectors.EVENT_READ, c)
    free = deque(conns)
    now = time.perf_counter()
    free_since = {c: now for c in conns}
    busy: dict = {}
    t0 = now + 0.01
    latency = [0.0] * n
    late = [0.0] * n
    failed = 0
    nxt = done = 0
    try:
        while done < n:
            now = time.perf_counter()
            while nxt < n and free and t0 + nxt / rate <= now:
                c = free.popleft()
                due = t0 + nxt / rate
                sent = time.perf_counter()
                c.send(requests[nxt])
                late[nxt] = sent - max(due, free_since[c])
                busy[c] = nxt
                nxt += 1
            if nxt < n and free:
                wait = t0 + nxt / rate - time.perf_counter()
                timeout = 0 if wait < _SPIN_S else wait - _SPIN_S
            else:
                timeout = _STALL_S
            events = sel.select(timeout)
            if not events and timeout == _STALL_S:
                raise ServeError("no response within the stall limit")
            for key, _ in events:
                c = key.data
                resp = c.on_readable()
                if resp is None:
                    continue
                done_t = time.perf_counter()
                i = busy.pop(c)
                latency[i] = done_t - (t0 + i / rate)
                if not check(i, resp):
                    failed += 1
                done += 1
                free.append(c)
                free_since[c] = done_t
    finally:
        sel.close()
    return {"latency": latency, "late": late, "failed": failed}
