"""The ``repro serve`` service: spec validation, the envelope contract,
warm/cold/coalesced/shed request paths, per-cell timeouts, progress
streaming, and the metrics surface.

Server tests run a real asyncio server on a background thread bound to
an ephemeral port, with the result cache redirected to the per-test tmp
dir by the autouse conftest fixture; clients speak plain
``http.client`` over keep-alive connections.  Slow/cold behaviour is
driven through an injected worker that sleeps ``cell.seed`` ms, so
backpressure and coalescing are tested without burning simulation time.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.experiments.parallel import Cell, CellFailure, cell_key
from repro.serve import serve_in_thread
from repro.serve.handlers import build_envelope, parse_cell
from repro.serve.http import HttpError
from repro.sim.provenance import config_hash

SPEC = {"mix": "S-1", "scheme": "baseline", "n_accesses": 300,
        "warmup": 50}


def _sleepy_worker(cell: Cell):
    """Injected worker: sleeps ``cell.seed`` ms, returns a
    deterministic (cacheable) failure-outcome stamped with the seed."""
    time.sleep(cell.seed / 1000.0)
    return CellFailure("slept", f"seed={cell.seed}")


class Client:
    """Tiny keep-alive JSON client for one server."""

    def __init__(self, handle) -> None:
        self.conn = http.client.HTTPConnection(
            handle.app.host, handle.app.port, timeout=60)

    def request(self, method: str, path: str, body=None):
        payload = json.dumps(body).encode() if body is not None else None
        self.conn.request(method, path, body=payload,
                          headers={"Content-Type": "application/json"})
        resp = self.conn.getresponse()
        data = resp.read()
        return resp.status, json.loads(data), dict(resp.getheaders())

    def close(self) -> None:
        self.conn.close()


@pytest.fixture
def server():
    handle = serve_in_thread(jobs=1, queue_depth=4, cell_timeout=60)
    yield handle
    handle.stop()


@pytest.fixture
def client(server):
    c = Client(server)
    yield c
    c.close()


# ---------------------------------------------------------------------------
# spec validation + envelope contract (no server needed)
# ---------------------------------------------------------------------------

class TestParseCell:
    def test_minimal_spec_fills_defaults(self):
        cell = parse_cell(dict(SPEC), max_accesses=10_000)
        assert cell == Cell(mix="S-1", scheme="baseline",
                            n_accesses=300, warmup=50, seed=123,
                            frame_policy="fragmented")

    @pytest.mark.parametrize("bad", [
        {"mix": "S-1"},                                   # missing fields
        {**SPEC, "typo_field": 1},                        # unknown field
        {**SPEC, "scheme": "definitely-not-a-scheme"},
        {**SPEC, "mix": "Z-9"},
        {**SPEC, "n_accesses": 0},
        {**SPEC, "n_accesses": 10**9},                    # over the cap
        {**SPEC, "n_accesses": True},                     # bool != int
        {**SPEC, "warmup": 300},                          # >= n_accesses
        {**SPEC, "frame_policy": "bogus"},
        {**SPEC, "n_cores": 0},
        "not an object",
    ])
    def test_rejects_bad_specs_with_400(self, bad):
        with pytest.raises(HttpError) as exc:
            parse_cell(bad, max_accesses=10_000)
        assert exc.value.status == 400

    def test_wait_is_not_a_cell_field(self):
        cell = parse_cell({**SPEC, "wait": False}, max_accesses=10_000)
        assert cell == parse_cell(dict(SPEC), max_accesses=10_000)

    def test_static_partition_parameterized_scheme_accepted(self):
        cell = parse_cell({**SPEC, "scheme": "static-partition:4"},
                          max_accesses=10_000)
        assert cell.scheme == "static-partition:4"


class TestEnvelope:
    def test_deterministic_failure_is_a_200_result(self):
        cell = parse_cell(dict(SPEC), max_accesses=10_000)
        status, env = build_envelope(
            "ab" * 16, cell, CellFailure("treeling-starvation", "x"))
        assert status == 200
        assert env["status"] == "failed"
        assert env["config_hash"] == config_hash(cell.resolve_config())
        assert env["cell"]["mix"] == "S-1"

    @pytest.mark.parametrize("kind,status", [
        ("timeout", 504), ("worker-crashed", 503)])
    def test_transient_failures_map_to_5xx(self, kind, status):
        cell = parse_cell(dict(SPEC), max_accesses=10_000)
        got, env = build_envelope("ab" * 16, cell,
                                  CellFailure(kind, "host issue"))
        assert got == status and env["outcome"]["kind"] == kind


# ---------------------------------------------------------------------------
# request paths against a live server
# ---------------------------------------------------------------------------

class TestServePaths:
    def test_cold_then_warm_same_config_hash(self, server, client):
        status, env, headers = client.request("POST", "/cells", SPEC)
        assert status == 200 and env["status"] == "done"
        assert headers["X-Served-From"] == "computed"
        assert env["key"] == cell_key(
            parse_cell(dict(SPEC), max_accesses=10_000))

        status2, env2, headers2 = client.request("POST", "/cells", SPEC)
        assert status2 == 200
        assert headers2["X-Served-From"] == "memory"
        assert env2["config_hash"] == env["config_hash"]
        assert env2["outcome"] == env["outcome"]
        assert server.app.queue.submitted == 1   # simulated exactly once

    def test_get_by_key_is_addressable_and_disk_backed(self, server,
                                                       client):
        _, env, _ = client.request("POST", "/cells", SPEC)
        key = env["key"]
        # evict the memory tier: the result must still be served (disk)
        server.app.memo.clear()
        status, got, headers = client.request("GET", f"/cells/{key}")
        assert status == 200
        assert headers["X-Served-From"] == "disk"
        assert got["config_hash"] == env["config_hash"]

    def test_unknown_key_404_and_malformed_key_400(self, client):
        status, _, _ = client.request("GET", "/cells/" + "0" * 32)
        assert status == 404
        status, _, _ = client.request("GET", "/cells/nothex")
        assert status == 400

    def test_unknown_endpoint_404_wrong_method_405(self, client):
        assert client.request("GET", "/nope")[0] == 404
        assert client.request("GET", "/cells")[0] == 405
        assert client.request("POST", "/cells/" + "0" * 32)[0] == 405

    def test_bad_json_body_is_400(self, server):
        c = Client(server)
        c.conn.request("POST", "/cells", body=b"{not json",
                       headers={"Content-Type": "application/json"})
        resp = c.conn.getresponse()
        assert resp.status == 400
        resp.read()
        c.close()

    def test_healthz_and_metrics_surface(self, server, client):
        client.request("POST", "/cells", SPEC)
        status, health, _ = client.request("GET", "/healthz")
        assert status == 200 and health["ok"]
        assert health["queue"]["depth"] == 4
        status, m, _ = client.request("GET", "/metrics")
        snap = m["metrics"]
        assert snap["counters"]["requests{code=200,endpoint=post_cells}"] \
            == 1
        hist = snap["histograms"]["request_us{endpoint=post_cells}"]
        assert hist["count"] == 1 and hist["p99"] > 0
        assert m["manifest"]["tool"] == "repro"

    def test_metrics_peak_rss_is_read_per_request(self, tmp_path):
        # ru_maxrss survives exec, so a child exec'd from this process
        # starts at this process's high-water mark; the child forks once
        # and the forked process, which starts its own, runs the server.
        script = (
            "import http.client, json, os, sys\n"
            "if os.fork():\n"
            "    sys.exit(os.waitstatus_to_exitcode(os.wait()[1]))\n"
            "from repro.serve import serve_in_thread\n"
            "h = serve_in_thread(jobs=1, cache_dir=sys.argv[1])\n"
            "def peak():\n"
            "    c = http.client.HTTPConnection(h.app.host, h.app.port,\n"
            "                                   timeout=60)\n"
            "    c.request('GET', '/metrics')\n"
            "    m = json.loads(c.getresponse().read())\n"
            "    c.close()\n"
            "    return m['manifest']['host']['peak_rss_kb']\n"
            "before = peak()\n"
            "blob = b'x' * (64 << 20)\n"
            "after = peak()\n"
            "h.stop()\n"
            "print(json.dumps([before, after]))\n")
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "srv")],
            env=env, capture_output=True, text=True, timeout=120,
            check=True)
        before, after = json.loads(out.stdout.splitlines()[-1])
        if before == 0:
            pytest.skip("peak RSS is not available on this platform")
        assert after - before >= 48 * 1024


class TestBackpressureAndCoalescing:
    def test_queue_full_gives_429_with_retry_after(self, tmp_path):
        handle = serve_in_thread(jobs=1, queue_depth=1,
                                 cell_timeout=30,
                                 worker=_sleepy_worker,
                                 cache_dir=str(tmp_path / "srv"))
        try:
            c = Client(handle)
            # occupy the only queue slot with a 2s cell
            status, env, _ = c.request(
                "POST", "/cells", {**SPEC, "seed": 2000, "wait": False})
            assert status == 202 and env["status"] == "queued"
            # a different cold cell must now be shed, not queued
            status, body, headers = c.request(
                "POST", "/cells", {**SPEC, "seed": 2001})
            assert status == 429
            assert float(headers["Retry-After"]) >= 1.0
            assert "queue full" in body["error"]
            # the same in-flight cell coalesces instead of 429ing
            status, env2, headers = c.request(
                "POST", "/cells", {**SPEC, "seed": 2000})
            assert status == 200
            assert headers["X-Served-From"] == "coalesced"
            assert env2["outcome"]["kind"] == "slept"
            assert handle.app.queue.rejected == 1
            assert handle.app.queue.submitted == 1
            c.close()
        finally:
            handle.stop()

    def test_concurrent_identical_posts_simulate_once(self, tmp_path):
        handle = serve_in_thread(jobs=2, queue_depth=4,
                                 cell_timeout=30,
                                 worker=_sleepy_worker,
                                 cache_dir=str(tmp_path / "srv"))
        try:
            spec = {**SPEC, "seed": 700}   # 700ms: wide overlap window
            results = []

            def post():
                c = Client(handle)
                results.append(c.request("POST", "/cells", spec))
                c.close()

            t1 = threading.Thread(target=post)
            t1.start()
            time.sleep(0.2)               # t1 is in flight now
            t2 = threading.Thread(target=post)
            t2.start()
            t1.join(30)
            t2.join(30)
            assert len(results) == 2
            assert all(s == 200 for s, _, _ in results)
            bodies = [env["outcome"] for _, env, _ in results]
            assert bodies[0] == bodies[1]
            sources = sorted(h["X-Served-From"] for _, _, h in results)
            assert sources == ["coalesced", "computed"]
            assert handle.app.queue.submitted == 1
            snap = handle.app.metrics.snapshot()
            assert snap["counters"]["coalesced_joins"] == 1
        finally:
            handle.stop()

    def test_hung_cell_times_out_as_504_and_is_not_cached(self,
                                                          tmp_path):
        handle = serve_in_thread(jobs=1, queue_depth=2,
                                 cell_timeout=0.3,
                                 worker=_sleepy_worker,
                                 cache_dir=str(tmp_path / "srv"))
        try:
            c = Client(handle)
            spec = {**SPEC, "seed": 30_000}   # 30s sleep vs 0.3s budget
            t0 = time.monotonic()
            status, env, _ = c.request("POST", "/cells", spec)
            assert time.monotonic() - t0 < 10
            assert status == 504
            assert env["status"] == "failed"
            assert env["outcome"]["kind"] == "timeout"
            # transient: nothing cached, a retry submits again
            key = env["key"]
            assert handle.app.cache.get(key) is None
            status, _, _ = c.request("GET", f"/cells/{key}")
            assert status == 404
            assert handle.app.queue.submitted == 1
            # the worker survived the alarm and takes the next cell
            status, env2, _ = c.request("POST", "/cells",
                                        {**SPEC, "seed": 10})
            assert status == 200 and env2["outcome"]["kind"] == "slept"
            c.close()
        finally:
            handle.stop()


class TestEventStream:
    def test_jsonl_stream_carries_cell_lifecycle(self, server):
        spec = {**SPEC, "n_accesses": 200, "warmup": 0}
        key = cell_key(parse_cell(spec, max_accesses=10_000))
        sock = socket.create_connection(
            (server.app.host, server.app.port), timeout=30)
        sock.sendall(b"GET /events?format=jsonl HTTP/1.1\r\n"
                     b"Host: x\r\n\r\n")
        buf = b""
        while b"\r\n\r\n" not in buf:
            buf += sock.recv(4096)
        header, _, buf = buf.partition(b"\r\n\r\n")
        assert b"200 OK" in header
        assert b"application/x-ndjson" in header

        c = Client(server)
        status, env, _ = c.request("POST", "/cells", spec)
        assert status == 200
        c.close()

        events = []
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            nl = buf.find(b"\n")
            if nl < 0:
                buf += sock.recv(4096)
                continue
            line, buf = buf[:nl], buf[nl + 1:]
            if not line.strip():
                continue
            events.append(json.loads(line))
            if events[-1]["event"] in ("cell_finish", "cell_failed"):
                break
        sock.close()
        kinds = [e["event"] for e in events if e.get("key") == key]
        assert kinds == ["cell_start", "cell_finish"]
        start = next(e for e in events if e["event"] == "cell_start")
        assert start["label"] == "S-1/baseline"

    def test_events_log_file_follows_progress_schema(self, tmp_path):
        from repro.obs.progress import read_events
        log = tmp_path / "events.jsonl"
        handle = serve_in_thread(jobs=1, queue_depth=2, cell_timeout=30,
                                 worker=_sleepy_worker,
                                 cache_dir=str(tmp_path / "srv"),
                                 events_log=str(log))
        try:
            c = Client(handle)
            c.request("POST", "/cells", {**SPEC, "seed": 10})
            c.close()
        finally:
            handle.stop()
        names = [e["event"] for e in read_events(log)]
        assert names[0] == "sweep_start"
        assert "cell_start" in names and "cell_failed" in names
        assert names[-1] == "sweep_end"


class TestAsyncNonWaiting:
    def test_wait_false_then_poll_until_done(self, server):
        c = Client(server)
        spec = {**SPEC, "n_accesses": 400, "warmup": 0, "wait": False}
        status, env, _ = c.request("POST", "/cells", spec)
        assert status == 202 and env["status"] == "queued"
        key = env["key"]
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            status, got, _ = c.request("GET", f"/cells/{key}")
            if status == 200:
                break
            assert status == 202 and got["status"] == "running"
            time.sleep(0.05)
        assert status == 200 and got["status"] == "done"
        assert got["config_hash"] == env["config_hash"]
        c.close()


class TestWarmLatency:
    def test_warm_cells_answer_fast(self, server):
        """The acceptance bar is p50 < 5ms via the loadtest; in-tree we
        assert a loose 50ms median so CI noise cannot flake the suite
        while a real regression (disk/pickle on the hot path) still
        fails."""
        c = Client(server)
        c.request("POST", "/cells", SPEC)
        lat = []
        for _ in range(30):
            t0 = time.perf_counter()
            status, _, headers = c.request("POST", "/cells", SPEC)
            lat.append(time.perf_counter() - t0)
            assert status == 200
            assert headers["X-Served-From"] == "memory"
        lat.sort()
        assert lat[len(lat) // 2] < 0.050
        c.close()
