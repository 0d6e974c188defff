#!/usr/bin/env python
"""Benchmark the experiment runner: serial vs parallel vs warm cache.

Times the same sweep up to three ways and writes the numbers (plus a
full provenance manifest) to ``BENCH_runner.json``:

1. **serial cold** -- every cell simulated in-process, no cache;
2. **parallel cold** -- the same cells fanned out over ``--jobs``
   worker processes into a fresh persistent cache (skipped on 1-CPU
   hosts, where a process pool is pure overhead);
3. **warm** -- the same cells again, answered entirely from that cache.

Usage:
    python scripts/bench.py [--quick] [--jobs N] [--out BENCH_runner.json]
                            [--cache-dir DIR] [--check] [--floor CELLS/S]

``--check`` is the CI regression gate: it exits non-zero unless

* serial cold throughput clears the cells/sec floor (``--floor``;
  defaults per sweep size) -- the raw-interpreter-speed gate, and
* the warm pass beats the cold pass and stays under 1s/cell (the
  caching-layer gate).

``parallel_speedup`` is recorded -- and asserted -- only when the host
actually has more than one CPU; on a 1-CPU host the number is
meaningless (0.815x was once recorded and blessed by CI).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments.common import get_scale  # noqa: E402
from repro.experiments.parallel import (CellFailure, ResultCache,  # noqa: E402
                                        execute, scale_cell)
from repro.sim.config import scaled_config  # noqa: E402
from repro.sim.provenance import host_facts, run_manifest  # noqa: E402

#: Default perf-history series next to BENCH_runner.json.
DEFAULT_HISTORY = "BENCH_history.jsonl"

#: The default sweep: the ISSUE's 4-scheme x 4-mix acceptance matrix.
SCHEMES = ["baseline", "ivleague-basic", "ivleague-invert", "ivleague-pro"]
MIXES = ["S-1", "S-2", "M-1", "L-2"]
QUICK_MIXES = ["S-1", "S-2"]

#: Serial cold throughput floors (cells/sec) for ``--check``.  Set with
#: ~40% headroom under the values measured on the slowest observed host
#: (a 1-CPU container: ~0.5-0.6 cells/s full, ~2.7-3.0 cells/s quick
#: with the generator core and memoized verify walks) so CI noise does
#: not flake the gate, while still sitting comfortably above the
#: pre-optimization baseline (0.365 cells/s full).  The same container
#: drifts 20-40% run to run (shared CPU), so the absolute floors are
#: deliberately loose; the trend gate is scripts/perf_check.py over
#: the --append-history series.
DEFAULT_FLOOR = {"full": 0.40, "quick": 1.6}


def build_cells(quick: bool):
    sc = get_scale("quick")
    mixes = QUICK_MIXES if quick else MIXES
    if quick:
        import dataclasses
        sc = dataclasses.replace(sc, n_accesses=2000, warmup=500)
    return [scale_cell(m, s, sc) for m in mixes for s in SCHEMES], sc, mixes


def profile_attribution(sc, mixes) -> dict:
    """One profiled cell per scheme (first mix, shortened trace):
    per-phase self-time shares explaining *where* serial cold time goes
    (verify / mac / counter_probe / tree_update / mirage_hash / ...).

    Profiled runs execute the same code as unprofiled ones; the hooks
    are guarded branches on the one simulator core and engine path.
    """
    from repro.experiments.parallel import resolve_engine
    from repro.sim.batched import make_simulator
    from repro.sim.profiler import PhaseProfiler
    from repro.workloads.mixes import build_mix

    n_acc = min(sc.n_accesses, 2000)
    warmup = min(sc.warmup, 500)
    mix = mixes[0]
    out = {}
    for scheme in SCHEMES:
        cell = scale_cell(mix, scheme, sc)
        cfg = cell.resolve_config()
        workload = build_mix(mix, n_accesses=n_acc, seed=cell.seed)
        engine = resolve_engine(scheme)(cfg, seed=cell.engine_seed)
        prof = PhaseProfiler()
        sim = make_simulator(cfg, engine, seed=cell.seed,
                             frame_policy=cell.frame_policy, profiler=prof)
        sim.run(workload, warmup=warmup)
        rep = prof.report()
        out[scheme] = {p["phase"]: round(p["share"], 4)
                       for p in rep["phases"]}
    return out


def history_record(payload: dict) -> dict:
    """Flatten one BENCH_runner payload into a perf-history record.

    The leading fields are the *comparability key*: two records measure
    the same thing only when bench/quick/n_cells/n_accesses agree
    (scripts/perf_check.py filters its baseline window by them).
    """
    man = payload.get("manifest", {})
    return {
        "bench": payload["bench"],
        "quick": payload["sweep"]["quick"],
        "n_cells": payload["sweep"]["n_cells"],
        "n_accesses": payload["sweep"]["n_accesses"],
        "cells_per_sec_serial": payload["cells_per_sec_serial"],
        "warm_seconds_per_cell": payload["warm_seconds_per_cell"],
        "parallel_speedup": payload["parallel_speedup"],
        "seconds": payload["seconds"],
        "git_sha": man.get("git_sha"),
        "config_hash": man.get("config_hash"),
        "created": man.get("created"),
        "host": payload["host"],
        # Per-scheme {phase: share} attribution; perf_check.py uses it
        # to name the phase that grew when throughput regresses.
        "phases": payload.get("phase_attribution"),
    }


def append_history(path: str, record: dict) -> None:
    """Append one JSONL record; the file is an append-only time series."""
    with open(path, "a", encoding="utf-8") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def timed(label: str, fn):
    t0 = time.perf_counter()
    out = fn()
    dt = time.perf_counter() - t0
    n_fail = sum(isinstance(o, CellFailure) for o in out)
    print(f"{label:14s} {dt:8.2f}s"
          + (f"  ({n_fail} failed cells)" if n_fail else ""))
    return out, dt


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true",
                    help="smaller matrix for CI smoke (2 mixes, short "
                         "traces)")
    ap.add_argument("--jobs", type=int,
                    default=min(4, os.cpu_count() or 1),
                    help="workers for the parallel phase "
                         "(default min(4, cpu_count))")
    ap.add_argument("--out", default="BENCH_runner.json")
    ap.add_argument("--cache-dir", default=None,
                    help="where the cold->warm cache lives (default: a "
                         "bench-private subdir of .cache)")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 unless serial cold clears the cells/sec "
                         "floor and warm-cache beats cold under 1s/cell")
    ap.add_argument("--floor", type=float, default=None,
                    help="serial cold cells/sec floor for --check "
                         f"(default {DEFAULT_FLOOR['quick']} quick / "
                         f"{DEFAULT_FLOOR['full']} full)")
    ap.add_argument("--append-history", action="store_true",
                    help="append this run's record to the perf-history "
                         "series (see --history-file)")
    ap.add_argument("--history-file", default=DEFAULT_HISTORY,
                    help=f"perf-history JSONL path (default "
                         f"{DEFAULT_HISTORY})")
    args = ap.parse_args()

    floor = args.floor if args.floor is not None else (
        DEFAULT_FLOOR["quick"] if args.quick else DEFAULT_FLOOR["full"])

    cells, sc, mixes = build_cells(args.quick)
    cache_root = args.cache_dir or os.path.join(".cache", "bench-runs")
    cache = ResultCache(cache_root)
    cache.clear()   # the 'cold' phases must actually be cold

    cpus = os.cpu_count() or 1
    print(f"{len(cells)} cells ({len(mixes)} mixes x {len(SCHEMES)} "
          f"schemes), {sc.n_accesses} accesses/cell, "
          f"jobs={args.jobs}, host cpus={cpus}")

    serial, t_serial = timed(
        "serial cold", lambda: execute(cells, jobs=1, cache=None))
    cells_per_sec = len(cells) / t_serial if t_serial else float("inf")

    run_parallel = cpus > 1
    if run_parallel:
        pooled, t_parallel = timed(
            "parallel cold", lambda: execute(cells, jobs=args.jobs,
                                             cache=cache))
    else:
        # A process pool on one CPU only adds fork + pickle overhead;
        # fill the cache serially instead so the warm phase still
        # measures what it is supposed to.
        print("parallel cold   skipped (1-CPU host)")
        pooled, t_parallel = timed(
            "cache fill", lambda: execute(cells, jobs=1, cache=cache))
    warm, t_warm = timed(
        "warm cache", lambda: execute(cells, jobs=args.jobs, cache=cache))

    t0 = time.perf_counter()
    phases = profile_attribution(sc, mixes)
    print(f"phase profile  {time.perf_counter() - t0:8.2f}s  "
          f"({len(phases)} schemes, {mixes[0]})")

    mismatched = [
        i for i, (a, b, c) in enumerate(zip(serial, pooled, warm))
        if not (type(a) is type(b) is type(c))
        or (hasattr(a, "to_dict")
            and not a.to_dict() == b.to_dict() == c.to_dict())]
    speedup = (t_serial / t_parallel
               if run_parallel and t_parallel else None)
    warm_per_cell = t_warm / len(cells)
    print(f"serial: {cells_per_sec:.3f} cells/s   "
          + (f"parallel speedup: {speedup:.2f}x   " if speedup else "")
          + f"warm: {warm_per_cell * 1000:.0f}ms/cell   "
          f"cache hits: {cache.hits}/{len(cells)}")
    if mismatched:
        print(f"DETERMINISM VIOLATION in cells {mismatched}",
              file=sys.stderr)

    payload = {
        "bench": "experiment-runner",
        "host": host_facts(),
        "sweep": {"schemes": SCHEMES, "mixes": mixes,
                  "n_cells": len(cells), "n_accesses": sc.n_accesses,
                  "warmup": sc.warmup, "quick": args.quick},
        "jobs": args.jobs,
        "seconds": {"serial_cold": round(t_serial, 3),
                    "parallel_cold": round(t_parallel, 3),
                    "warm_cache": round(t_warm, 3)},
        "cells_per_sec_serial": round(cells_per_sec, 3),
        "serial_floor": floor,
        "parallel_speedup": (round(speedup, 3) if speedup is not None
                             else None),
        "warm_seconds_per_cell": round(warm_per_cell, 4),
        "cache": {"hits": cache.hits, "misses": cache.misses,
                  "stores": cache.stores, "dir": cache_root},
        "phase_attribution": phases,
        "deterministic": not mismatched,
        "manifest": run_manifest(
            config=scaled_config(n_cores=sc.n_cores), seed=sc.seed,
            mixes=mixes, schemes=SCHEMES, accesses=sc.n_accesses,
            warmup=sc.warmup, frames=sc.frame_policy),
    }
    with open(args.out, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
    print(f"wrote {args.out}")

    if mismatched:
        return 1
    if args.append_history:
        append_history(args.history_file, history_record(payload))
        print(f"appended history record to {args.history_file}")
    if args.check:
        ok = True
        if cells_per_sec < floor:
            print(f"CHECK FAILED: serial cold {cells_per_sec:.3f} "
                  f"cells/s is under the {floor} cells/s floor",
                  file=sys.stderr)
            ok = False
        if not (t_warm < t_parallel and warm_per_cell < 1.0):
            print(f"CHECK FAILED: warm={t_warm:.2f}s vs "
                  f"cold={t_parallel:.2f}s, "
                  f"{warm_per_cell:.2f}s/cell (need warm < cold "
                  f"and < 1s/cell)", file=sys.stderr)
            ok = False
        if not ok:
            return 1
        print(f"check passed: serial {cells_per_sec:.3f} cells/s >= "
              f"{floor} floor; warm cache beats cold and is <1s/cell")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
