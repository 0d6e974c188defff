"""The repository benchmark: ``python3 perfbench/run.py --workload W``.

Run it from the root of a checkout; it imports ``repro`` from ``./src``
and refuses to run without it.  Workloads (see spec.json):

* ``sweep16`` -- {S-1, S-2, M-1, L-2} x {baseline, ivleague-basic,
  ivleague-invert, ivleague-pro}, serially in-process;
* ``churn``   -- M-4 x {baseline, ivleague-pro}, page churn.

``--trace 0`` prints the end-to-end metrics, measured untraced: for
``--seconds`` it runs passes over the grid through ``run_cell``.  The
first pass's results go into a fresh ResultCache served by a ``repro
serve --jobs 1`` subprocess (one request per key, from the disk tier);
every later cell is followed by a short burst of memory-tier hits at a
fixed light rate.  ``--trace 1`` runs each cell through ``run_cell`` and
again with spans around each layer's entry points, then serves the
results at the light and a heavy rate, and prints the per-layer metrics.
spec.json says what each metric means.  Both print a table, then
``failed_ratio`` and a ``result_digest`` over the simulated results; the
last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Everything the run writes stays under ``.perfbench_run/`` (scratch,
removed at exit) and ``.perfbench_out/`` (span files) in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
SPEC = json.loads((HERE / "spec.json").read_text())
WORKLOADS = tuple(SPEC["workloads"])


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def pct(values, q: float) -> float:
    """Nearest-rank percentile of ``values``."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)]


def import_repro():
    """Import ``repro`` from this checkout's ``src`` or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no src/repro under {ROOT}; run from the "
                 f"root of a checkout")
    sys.path[:0] = [str(src), str(HERE)]
    import repro
    if not Path(repro.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {src}")


class Ops:
    """Attempted/failed op accounting plus the output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.problems) < 20:
            self.problems.append(f"{what} ({failed} failed)")

    def record(self, ok: bool, what: str) -> bool:
        self.add(1, 0 if ok else 1, what)
        return ok


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------

def grid(name: str, seed: int):
    from repro.experiments.parallel import Cell
    w = SPEC["workloads"][name]
    return [Cell(mix, scheme, w["n_accesses"], w["warmup"], seed,
                 w["frame_policy"])
            for mix in w["mixes"] for scheme in w["schemes"]]


def run_pass(cells, ops: Ops, first: dict | None = None,
             after_cell=None) -> list:
    """One serial pass over ``cells``; a CellRun each.  A repeat pass
    checks each result against ``first`` ({cell: CellRun}), bit for bit,
    registry snapshot (the work ledger) included."""
    from cells import cell_label, run_timed
    runs = []
    for cell in cells:
        r = run_timed(cell)
        if r.ok and first is not None and cell in first \
                and r.digest != first[cell].digest:
            r.error = "result differs from the first pass"
        ops.record(r.ok, f"{cell_label(cell)}: {r.error}")
        runs.append(r)
        log(f"  {cell_label(cell)}: setup {r.setup_cpu_s:.3f}s "
            f"run {r.run_cpu_s:.3f}s cpu {r.error}")
        if after_cell is not None:
            after_cell()
    return runs


def cell_metrics(passes) -> dict:
    """End-to-end cell metrics over the passes of a timed run: each
    cell's median over the passes, so that a metric reflects the host's
    speed over the whole run, not its fastest moment (spec.json,
    timing)."""
    by_cell: dict = {}
    for runs in passes:
        for r in runs:
            if r.ok:
                by_cell.setdefault(r.cell, []).append(r)
    if not by_cell:
        raise RuntimeError("every cell failed")

    def med(rs, f):
        return statistics.median(f(r) for r in rs)
    runs = by_cell.values()
    return {
        "setup_s": sum(med(rs, lambda r: r.setup_cpu_s) for rs in runs),
        "cell_cpu_s.mean": statistics.fmean(
            med(rs, lambda r: r.setup_cpu_s + r.run_cpu_s) for rs in runs),
        "sim_kacc_per_cpu_s": (
            sum(rs[0].accesses for rs in runs)
            / sum(med(rs, lambda r: r.run_cpu_s) for rs in runs) / 1e3),
        "cold_latency_s.mean": statistics.fmean(
            med(rs, lambda r: r.setup_wall_s + r.run_wall_s)
            for rs in runs),
    }


def run_cells_traced(cells, ops: Ops, out_path: Path) -> tuple[dict, dict]:
    """Per-layer self times and the work ledger from traced runs."""
    from cells import cell_label, ledger_metrics, run_traced
    from spans import LAYERS, SpanRecorder
    rec = SpanRecorder()
    results, ref_cpu, traced_cpu = {}, 0.0, 0.0
    for cell in cells:
        r = run_traced(cell, rec)
        ops.record(r.ok, f"{cell_label(cell)} (traced): {r.error}")
        log(f"  {cell_label(cell)}: run_cell {r.ref_cpu_s:.3f}s traced "
            f"{r.traced_cpu_s:.3f}s cpu, {r.spans} spans {r.error}")
        if r.ok:
            results[cell] = r
            ref_cpu += r.ref_cpu_s
            traced_cpu += r.traced_cpu_s
    if not results:
        raise RuntimeError("every traced cell failed")
    out_path.parent.mkdir(exist_ok=True)
    rec.write(out_path)
    self_s = {name: ns / 1e9 for name, ns in zip(LAYERS, rec.self_ns)}
    metrics = {f"{name}.self_s": self_s[name] for name in LAYERS
               if name not in ("workloads.build", "setup.machine")}
    metrics["workloads.build_s"] = self_s["workloads.build"]
    metrics["setup.machine_s"] = self_s["setup.machine"]
    metrics["trace.overhead_ratio"] = traced_cpu / ref_cpu
    # Per-cell spread of the untraced run_cell calls (spec.json says why
    # these are not bounded end-to-end metrics).
    cpu = [r.ref_cpu_s for r in results.values()]
    wall = [r.ref_wall_s for r in results.values()]
    metrics["cell_cpu_s.p50"] = statistics.median(cpu)
    metrics["cell_cpu_s.max"] = max(cpu)
    metrics["cold_latency_s.p50"] = statistics.median(wall)
    metrics["cold_latency_s.max"] = max(wall)
    metrics["experiments.cell_wall_s.mean"] = statistics.fmean(wall)
    metrics.update(ledger_metrics([r.result for r in results.values()]))
    return metrics, results


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------

def cell_body(cell) -> dict:
    return {"mix": cell.mix, "scheme": cell.scheme,
            "n_accesses": cell.n_accesses, "warmup": cell.warmup,
            "seed": cell.seed, "frame_policy": cell.frame_policy}


class Service:
    """A ``repro serve --jobs 1`` subprocess over a fresh ResultCache
    that holds the in-process ``results`` ({cell: run with .result and
    .digest}).  Spawning waits for /healthz and a pool-computed warm-up
    cell (``ready_s``); ``prime`` asks for each key once, from the disk
    tier; ``open_loop`` then sends memory-tier hits at a fixed rate."""

    def __init__(self, scratch: Path, results: dict, seed: int,
                 ops: Ops) -> None:
        from loadgen import Server, ServeError, http_request
        from repro.experiments.parallel import ResultCache, cell_key
        cache_dir = scratch / "results-cache"
        cache = ResultCache(cache_dir)
        for cell, r in results.items():
            cache.put(cell_key(cell), r.result, cell)
        self.results = results
        self.cells = list(results)
        self.ops = ops
        self.rng = random.Random(seed)
        self.reqs = {c: http_request("POST", "/cells", cell_body(c))
                     for c in self.cells}
        self.first_body: dict = {}
        self.first_lat: list = []
        t0 = time.perf_counter()
        self.server = Server(ROOT, cache_dir, scratch / "server.log")
        self.conns = []
        try:
            conn = self.server.connect()
            self.conns.append(conn)
            self.server.wait_healthy(conn)
            body = dict(SPEC["serve"]["pool_warmup_cell"])
            resp = conn.request(http_request("POST", "/cells", body))
            if (resp.status != 200 or resp.headers.get("x-served-from")
                    != "computed" or resp.json()["status"] != "done"):
                raise ServeError("pool warm-up cell did not compute")
            self.ready_s = time.perf_counter() - t0
            self.conns += [self.server.connect() for _ in
                           range(SPEC["serve"]["connections"] - 1)]
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        for c in self.conns:
            c.close()
        self.server.stop()

    def prime(self) -> None:
        """Each key once, closed loop: from disk, carrying the
        in-process result."""
        from cells import result_digest
        conn = self.conns[0]
        for cell in self.cells:
            t = time.perf_counter()
            resp = conn.request(self.reqs[cell])
            self.first_lat.append(time.perf_counter() - t)
            source = resp.headers.get("x-served-from")
            ok = resp.status == 200 and source == "disk"
            if ok:
                env = resp.json()
                ok = (env["status"] == "done" and result_digest(
                    env["outcome"]) == self.results[cell].digest)
            self.ops.record(ok, f"first request: status {resp.status} "
                                f"from {source}")
            self.first_body[cell] = resp.body

    def open_loop(self, phase: str, n: int) -> dict:
        """``n`` requests for random keys at ``phase``'s fixed rate."""
        from loadgen import open_loop
        rate = SPEC["serve"][f"{phase}_rps"]
        order = [self.rng.choice(self.cells) for _ in range(n)]

        def check(i, resp):
            return (resp.status == 200
                    and resp.headers.get("x-served-from") == "memory"
                    and resp.body == self.first_body[order[i]])
        res = open_loop(self.conns, [self.reqs[c] for c in order], rate,
                        check)
        self.ops.add(n, res["failed"], f"{phase} replies")
        return res

    def layer_metrics(self) -> dict:
        snap = self.server.metrics(self.conns[0])
        hist = snap["histograms"]["request_us{endpoint=post_cells}"]
        counters = snap["counters"]
        posts = sum(v for k, v in counters.items()
                    if k.startswith("requests{")
                    and "endpoint=post_cells" in k)
        return {
            "serve.request_us.p50": hist["p50"],
            "serve.request_us.p99": hist["p99"],
            "serve.memory_hit_ratio":
                counters.get("warm_hits{tier=memory}", 0) / posts,
            "serve.queue_pending_max": snap["gauges"]["queue_pending_max"],
            "serve.ready_s": self.ready_s,
            "serve.first_request_ms":
                statistics.fmean(self.first_lat) * 1e3,
        }


def measure_timed(scratch: Path, args, ops: Ops) -> tuple[dict, dict]:
    """The end-to-end metrics: passes over the grid for ``--seconds``.

    The first pass fills the server's cache; every later cell is
    followed by a short burst of warm requests at the light rate.  A
    pass starts only if one more is expected to end in time, and there
    are at least ``min_passes``."""
    serve = SPEC["serve"]
    deadline = time.perf_counter() + args.seconds
    cells = grid(args.workload, args.seed)
    t = time.perf_counter()
    passes = [run_pass(cells, ops)]
    results = {r.cell: r for r in passes[0] if r.ok}
    if not results:
        raise RuntimeError("every cell failed")
    burst_s = serve["burst_requests"] / serve["light_rps"]
    pass_s = time.perf_counter() - t + len(cells) * burst_s
    svc = Service(scratch, results, args.seed, ops)
    try:
        svc.prime()
        medians = []

        def burst():
            res = svc.open_loop("light", serve["burst_requests"])
            medians.append(statistics.median(res["latency"]))
        while (len(passes) < SPEC["timing"]["min_passes"]
               or time.perf_counter() + pass_s <= deadline):
            t = time.perf_counter()
            passes.append(run_pass(cells, ops, results, burst))
            pass_s = max(pass_s, time.perf_counter() - t)
        m = cell_metrics(passes)
        m["warm_latency_ms.p50"] = statistics.median(medians) * 1e3
        log(f"  {len(passes)} passes; warm burst medians, ms: "
            + " ".join(f"{x * 1e3:.3f}" for x in sorted(medians)))
    finally:
        svc.close()
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                        .ru_maxrss / 1024)
    return m, results


def measure_traced(scratch: Path, args, ops: Ops) -> tuple[dict, dict]:
    """The per-layer metrics: one traced pass, then the served phases
    at the light and the heavy rate, each a share of ``--seconds``."""
    cells = grid(args.workload, args.seed)
    out_path = ROOT / ".perfbench_out" / f"spans-{args.workload}.bin"
    m, results = run_cells_traced(cells, ops, out_path)
    shares = SPEC["serve"]["phase_seconds_per_run_second"]
    svc = Service(scratch, results, args.seed, ops)
    try:
        svc.prime()
        lat, late = {}, []
        for phase in ("light", "heavy"):
            n = max(1, round(SPEC["serve"][f"{phase}_rps"]
                             * shares[phase] * args.seconds))
            res = svc.open_loop(phase, n)
            lat[phase] = res["latency"]
            late += res["late"]
            log(f"  {phase}: {n} requests, ms: " + " ".join(
                f"p{q} {pct(res['latency'], q) * 1e3:.3f}"
                for q in (50, 90, 99)) + f", {res['failed']} failed")
        m.update(svc.layer_metrics())
    finally:
        svc.close()
    m["loadgen.light_ms.p99"] = pct(lat["light"], 99) * 1e3
    m["loadgen.heavy_ms.p50"] = pct(lat["heavy"], 50) * 1e3
    m["loadgen.heavy_ms.p99"] = pct(lat["heavy"], 99) * 1e3
    m["loadgen.late_ms.p99"] = pct(late, 99) * 1e3
    return m, results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=123,
                    help="workload seed of every cell (default: Scale.seed)")
    ap.add_argument("--seconds", type=float, default=50.0,
                    help="run length: passes over the grid with --trace "
                         "0, the served phases with --trace 1")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run")
    args = ap.parse_args(argv)
    import_repro()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in
             bench["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in
             bench["per_layer" if args.trace else "end_to_end"]}

    # The shipping configuration: batched core, invariants checked.
    for var in ("REPRO_CORE", "REPRO_CACHE_DIR", "REPRO_NO_CACHE",
                "REPRO_JOBS", "REPRO_CELL_TIMEOUT", "REPRO_PROGRESS"):
        os.environ.pop(var, None)
    os.environ["REPRO_CHECK_INVARIANTS"] = "1"
    # A SIGTERM unwinds like an exception, so the server is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    # Everything on one CPU: this process and, by inheritance, the server
    # and its pool worker.  The client blocks while the server works, so
    # they do not compete; with the server on a second CPU, each request
    # pays a cross-CPU wake-up, and on a 2-vCPU VM that made the warm
    # latency 1.7x higher and 4x noisier run to run (spec.json).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ops = Ops()
    (ROOT / ".perfbench_run").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_run"))
    try:
        log(f"perfbench: {args.workload} seed={args.seed} "
            f"trace={args.trace}")
        measure = measure_traced if args.trace else measure_timed
        metrics, results = measure(scratch, args, ops)
        digests = [results[c].digest
                   for c in grid(args.workload, args.seed) if c in results]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass   # another run's scratch is still there
    failed_ratio = ops.failed / ops.attempted
    metrics["ok_ratio"] = 1.0 - failed_ratio
    from cells import combined_digest
    missing = [n for n in names if n not in metrics]
    if missing:
        sys.exit(f"perfbench: metrics not measured: {missing}")
    for n in names:
        print(f"{n:34s} {metrics[n]:>16.6f} {units[n]}")
    print(f"{'failed_ratio':34s} {failed_ratio:>16.6f} "
          f"({ops.failed}/{ops.attempted})")
    print(f"result_digest {combined_digest(digests)}")
    for p in ops.problems:
        print(f"problem: {p}")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
