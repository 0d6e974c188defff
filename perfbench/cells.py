"""In-process simulation cells: timed runs, traced runs and the work ledger.

Every cell runs through ``repro.experiments.parallel.run_cell`` itself.
``run_cell`` looks up ``build_mix``, ``resolve_engine`` and
``make_simulator`` as module attributes at call time, so replacing those
attributes for the length of a call reaches the calls it makes: that is
how set-up and simulation are timed apart, and how the traced run puts
spans around construction and wraps the machine ``run_cell`` builds.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

from repro.experiments.parallel import Cell, CellFailure, run_cell

from spans import Patches, SpanRecorder, wrap_instances


def result_digest(result) -> str:
    """sha256 of a RunResult's canonical JSON (``to_dict`` after a JSON
    round trip, so a result parsed from a server reply digests the same)."""
    d = result if isinstance(result, dict) else result.to_dict()
    canon = json.dumps(json.loads(json.dumps(d)), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def combined_digest(digests) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def cell_label(cell: Cell) -> str:
    return f"{cell.mix}/{cell.scheme}/{cell.n_accesses}"


def _no_wrap(layer, fn):
    return fn


@contextmanager
def run_cell_hooks(on_sim, wrap=_no_wrap):
    """While active, ``run_cell`` builds its trace and machine through
    ``wrap(layer, fn)`` and hands each simulator to ``on_sim`` before
    running it."""
    import repro.experiments.parallel as parallel
    import repro.sim.batched as batched
    import repro.workloads.mixes as mixes

    build_mix = mixes.build_mix
    resolve_engine = parallel.resolve_engine
    make_simulator = batched.make_simulator
    make_wrapped = wrap("setup.machine", make_simulator)

    def hooked_resolve_engine(scheme):
        return wrap("setup.machine", resolve_engine(scheme))

    def hooked_make_simulator(*args, **kwargs):
        sim = make_wrapped(*args, **kwargs)
        on_sim(sim)
        return sim

    mixes.build_mix = wrap("workloads.build", build_mix)
    parallel.resolve_engine = hooked_resolve_engine
    batched.make_simulator = hooked_make_simulator
    try:
        yield
    finally:
        mixes.build_mix = build_mix
        parallel.resolve_engine = resolve_engine
        batched.make_simulator = make_simulator


def _check_outcome(outcome) -> None:
    """Raise unless ``outcome`` is a RunResult that measured something."""
    if isinstance(outcome, CellFailure):
        raise RuntimeError(f"cell failed: {outcome.kind}: {outcome.message}")
    if not outcome.cores or any(c.cycles <= 0 or c.mem_accesses <= 0
                                for c in outcome.cores):
        raise RuntimeError("cell measured no cycles or accesses")


@dataclass
class CellRun:
    """One timed cell (or its failure)."""

    cell: Cell
    setup_cpu_s: float = 0.0
    setup_wall_s: float = 0.0
    run_cpu_s: float = 0.0
    run_wall_s: float = 0.0
    accesses: int = 0            # all cores, warmup included
    result: object = None
    digest: str = ""
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error


def run_timed(cell: Cell) -> CellRun:
    """One ``run_cell``, its set-up (``run_cell`` entry to
    ``Simulator.run``: trace generation plus machine construction) and
    its ``Simulator.run`` timed apart.  The previous cell's garbage is
    collected first, so one machine is alive at a time.  Exceptions -- a
    ``CellFailure``-type model failure, an invariant violation, anything
    else -- make a failed op."""
    out = CellRun(cell)
    run_start = {}

    def on_sim(sim):
        run = sim.run

        def timed_run(workload, *args, **kwargs):
            out.accesses = sum(len(t) for t in workload.traces)
            run_start["cpu"] = time.process_time()
            run_start["wall"] = time.perf_counter()
            return run(workload, *args, **kwargs)
        sim.run = timed_run

    gc.collect()
    try:
        with run_cell_hooks(on_sim):
            c0, w0 = time.process_time(), time.perf_counter()
            result = run_cell(cell)
            c1, w1 = time.process_time(), time.perf_counter()
        _check_outcome(result)
        out.setup_cpu_s = run_start["cpu"] - c0
        out.setup_wall_s = run_start["wall"] - w0
        out.run_cpu_s = c1 - run_start["cpu"]
        out.run_wall_s = w1 - run_start["wall"]
        out.result = result
        out.digest = result_digest(result)
    except Exception as exc:   # noqa: BLE001 - a failed op, not an abort
        out.error = f"{type(exc).__name__}: {exc}"
    return out


@dataclass
class TracedRun:
    """One cell run twice by ``run_cell``: untraced, then traced."""

    cell: Cell
    ref_wall_s: float = 0.0
    traced_cpu_s: float = 0.0
    spans: int = 0
    digest: str = ""
    result: object = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error


def run_traced(cell: Cell, rec: SpanRecorder) -> TracedRun:
    """``run_cell`` untraced as the reference, then ``run_cell`` on a
    traced machine; the two must agree bit for bit, registry snapshot
    (the work ledger's source) included."""
    out = TracedRun(cell)

    def on_sim(sim):
        wrap_instances(rec, sim)
        sim.run = rec.wrap("sim.core_loop", sim.run)

    gc.collect()
    try:
        c0, w0 = time.process_time(), time.perf_counter()
        ref = run_cell(cell)
        out.ref_wall_s = time.perf_counter() - w0
        out.ref_cpu_s = time.process_time() - c0
        _check_outcome(ref)
        gc.collect()
        c0 = time.process_time()
        try:
            with Patches(rec), run_cell_hooks(on_sim, rec.wrap):
                result = run_cell(cell)
            out.traced_cpu_s = time.process_time() - c0
        finally:
            out.spans = rec.end_cell(cell_label(cell))
        _check_outcome(result)
        out.digest = result_digest(result)
        if out.digest != result_digest(ref):
            raise RuntimeError("traced result or work ledger differs from "
                               "run_cell's")
        out.result = result
    except Exception as exc:   # noqa: BLE001 - a failed op, not an abort
        out.error = f"{type(exc).__name__}: {exc}"
    return out


# ---------------------------------------------------------------------------
# Work ledger: per-layer counts from the measured window's registry snapshot
# ---------------------------------------------------------------------------

def ledger_counts(results) -> Counter:
    """Raw counter sums over ``results`` (exact integers per seed)."""
    t = Counter()
    for r in results:
        snap = r.registry_snapshot
        for group, vals in snap.items():
            if group.startswith("cores."):
                t["sim.accesses"] += vals["mem_accesses"]
            elif group.startswith("hist."):
                t["sim.hist.records"] += sum(
                    v for k, v in vals.items() if k.endswith(".count"))
            elif group.startswith(("l1.", "l2.")):
                lvl = group[:2]
                t[f"{lvl}.hits"] += vals["hits"]
                t[f"{lvl}.misses"] += vals["misses"]
            elif group.startswith("nflb."):
                t["nflb.hits"] += vals["hits"]
                t["nflb.misses"] += vals["misses"]
        llc = snap["llc"]
        t["llc.hits"] += llc["hits"]
        t["llc.misses"] += llc["misses"]
        t["llc.writebacks"] += llc["writebacks"]
        dram = snap["dram"]
        for k in ("reads", "writes", "row_hits", "row_misses"):
            t[f"dram.{k}"] += dram[k]
        eng = snap["engine"]
        for k in ("data_reads", "data_writes", "writebacks_absorbed",
                  "verifications", "tree_nodes_visited", "page_allocs",
                  "page_frees"):
            t[f"engine.{k}"] += eng[k]
        for cache in ("ctr$", "mac$", "tree$"):
            t[f"{cache}.hits"] += snap[cache]["hits"]
            t[f"{cache}.misses"] += snap[cache]["misses"]
        if "lmm$" in snap:
            t["lmm.hits"] += snap["lmm$"]["hits"]
            t["lmm.misses"] += snap["lmm$"]["misses"]
        t["tlb.hits"] += snap["tlb"]["hits"]
        t["tlb.misses"] += snap["tlb"]["misses"]
    return t


def _ratio(s: Counter, prefix: str) -> float:
    hits, misses = s[f"{prefix}.hits"], s[f"{prefix}.misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def ledger_metrics(results) -> dict:
    """The per-layer count and ratio metrics named in spec.json."""
    s = ledger_counts(results)
    rows = s["dram.row_hits"] + s["dram.row_misses"]
    return {
        "sim.accesses": s["sim.accesses"],
        "sim.hist.records": s["sim.hist.records"],
        "mem.l1.hit_ratio": _ratio(s, "l1"),
        "mem.l2.hit_ratio": _ratio(s, "l2"),
        "mem.llc.probes": s["llc.hits"] + s["llc.misses"],
        "mem.llc.hit_ratio": _ratio(s, "llc"),
        "mem.llc.writebacks": s["llc.writebacks"],
        "mem.dram.reads": s["dram.reads"],
        "mem.dram.writes": s["dram.writes"],
        "mem.dram.row_hit_ratio": s["dram.row_hits"] / rows if rows else 0.0,
        "secure.engine.calls": (s["engine.data_reads"]
                                + s["engine.data_writes"]
                                + s["engine.writebacks_absorbed"]),
        "secure.verifications": s["engine.verifications"],
        "secure.tree_nodes_visited": s["engine.tree_nodes_visited"],
        "secure.mac.hit_ratio": _ratio(s, "mac$"),
        "secure.counter.hit_ratio": _ratio(s, "ctr$"),
        "secure.meta_cache.probes": sum(
            s[f"{c}.hits"] + s[f"{c}.misses"]
            for c in ("ctr$", "mac$", "tree$")),
        "secure.tree_cache.hit_ratio": _ratio(s, "tree$"),
        "core.page_allocs": s["engine.page_allocs"],
        "core.page_frees": s["engine.page_frees"],
        "core.nflb.hit_ratio": _ratio(s, "nflb"),
        "core.lmm.hit_ratio": _ratio(s, "lmm"),
        "osmodel.pagetable.walks": s["tlb.misses"],
        "osmodel.tlb.hit_ratio": _ratio(s, "tlb"),
    }
