"""Span recording around the public entry points of each simulator layer.

The traced run measures the code that ships: it installs no tracer or
phase profiler from ``repro`` (both force the instrumented slow path)
and subclasses nothing (a subclassed L1/L2/TLB routes the batched core
onto its scalar fallback).  Instead it replaces a few bound methods on
the machine's objects, and a few class attributes whose results are
bound at construction time, with thin wrappers that time each call.

A span is (layer, parent span, start ns, end ns).  Spans live in flat
in-memory arrays per cell and are written out once, at the end of the
run.  Self time per layer -- a span's duration minus the time its child
spans cover -- is accumulated while the spans are recorded.
"""

from __future__ import annotations

import json
import time
import zlib
from array import array

#: Every layer the traced run attributes time to, in report order.
LAYERS = (
    "sim.core_loop",
    "sim.hist",
    "workloads.build",
    "setup.machine",
    "mem.l1l2",
    "mem.llc",
    "mem.dram",
    "secure.engine",
    "secure.meta_cache",
    "core.page_lifecycle",
    "osmodel.allocator",
    "osmodel.pagetable",
    "osmodel.tlb",
)
LAYER_ID = {name: i for i, name in enumerate(LAYERS)}


def cache_layer(cache) -> str:
    """Layer a cache object belongs to, from its registry name."""
    name = cache.name
    if name.startswith(("l1.", "l2.")):
        return "mem.l1l2"
    if name == "llc":
        return "mem.llc"
    return "secure.meta_cache"


class SpanRecorder:
    """Flat span arrays for the current cell plus per-layer self time."""

    def __init__(self) -> None:
        self.layer = array("B")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.self_ns = [0] * len(LAYERS)
        # Open-span stack: span indices and child time covered so far;
        # the root entry absorbs top-level spans.
        self._open = [-1]
        self._child = [0]
        #: cell label -> compressed span arrays, written at the end.
        self.cells: dict[str, bytes] = {}

    def wrap(self, layer: str, fn):
        """``fn`` with every call recorded as a span of ``layer``."""
        lid = LAYER_ID[layer]
        perf = time.perf_counter_ns
        lay, par, st, en = self.layer, self.parent, self.start, self.end
        open_, child = self._open, self._child
        self_ns = self.self_ns

        def traced(*args, **kwargs):
            # [e0, end of bookkeeping] is charged to the parent as child
            # time, so a parent's self time excludes its children's
            # span bookkeeping; [t0, t1] is this span.
            e0 = perf()
            idx = len(st)
            lay.append(lid)
            par.append(open_[-1])
            st.append(0)
            en.append(0)
            open_.append(idx)
            child.append(0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                open_.pop()
                self_ns[lid] += t1 - t0 - child.pop()
                st[idx] = t0
                en[idx] = t1
                child[-1] += perf() - e0
        return traced

    def end_cell(self, label: str) -> int:
        """Move the current cell's spans into the output buffer."""
        n = len(self.start)
        blob = b"".join(a.tobytes() for a in
                        (self.layer, self.parent, self.start, self.end))
        self.cells[label] = zlib.compress(blob, 1)
        for a in (self.layer, self.parent, self.start, self.end):
            del a[:]
        return n

    def write(self, path) -> None:
        """One file: a JSON header line, then each cell's compressed
        arrays (uint8 layer, int64 parent/start/end, in that order)."""
        header = {"layers": list(LAYERS),
                  "cells": [[k, len(v)] for k, v in self.cells.items()]}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for blob in self.cells.values():
                f.write(blob)


class Patches:
    """Class-level wrappers, installed for one traced cell's lifetime.

    They must be in place before the machine is built, because the
    batched core and the engine fast path bind these callables (or the
    closures they return) at construction time.
    """

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self._saved: list = []

    def _patch(self, cls, name: str, new) -> None:
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, new)

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        from repro.mem.cache import Cache
        from repro.mem.memctrl import MemoryController
        from repro.mem.mirage import MirageCache
        from repro.osmodel.pagetable import PageTable
        from repro.sim.hist import LatencyHistogram

        rec = self.rec
        wrap = rec.wrap
        self._patch(PageTable, "walk",
                    wrap("osmodel.pagetable", PageTable.walk))
        self._patch(LatencyHistogram, "record",
                    wrap("sim.hist", LatencyHistogram.record))
        self._patch(LatencyHistogram, "record_many",
                    wrap("sim.hist", LatencyHistogram.record_many))

        def closure_binder(orig):
            def bind(cache):
                return wrap(cache_layer(cache), orig(cache))
            return bind

        for cls in (Cache, MirageCache):
            for name in ("bind_fast_probe", "bind_fast_fill"):
                if name in cls.__dict__:
                    self._patch(cls, name,
                                closure_binder(cls.__dict__[name]))

        orig_ops = MemoryController.bind_engine_ops

        def bind_engine_ops(mc, estats):
            return tuple(wrap("mem.dram", f)
                         for f in orig_ops(mc, estats))
        self._patch(MemoryController, "bind_engine_ops", bind_engine_ops)

    def __exit__(self, *exc) -> None:
        for cls, name, orig in reversed(self._saved):
            setattr(cls, name, orig)
        self._saved.clear()


def wrap_instances(rec: SpanRecorder, sim) -> None:
    """Instance-level wrappers on a freshly built machine."""
    def on(obj, layer: str, *names: str) -> None:
        for name in names:
            if hasattr(obj, name):
                setattr(obj, name, rec.wrap(layer, getattr(obj, name)))

    engine = sim.engine
    on(engine, "secure.engine", "data_access", "handle_writeback")
    on(engine, "core.page_lifecycle", "on_page_alloc", "on_page_free")
    on(engine.mc, "mem.dram", "read", "write")
    on(sim.allocator, "osmodel.allocator", "alloc", "alloc_in_range", "free")
    on(sim.tlb, "osmodel.tlb", "lookup", "insert", "invalidate")
    hier = sim.hierarchy
    on(hier, "mem.l1l2", "access")
    for cache in (*hier.l1, *hier.l2):
        on(cache, "mem.l1l2", "fill")
    on(hier.llc, "mem.llc", "fill", "lookup")
    for cache in (engine.counter_cache, engine.mac_cache, engine.tree_cache):
        on(cache, "secure.meta_cache", "lookup", "fill", "touch_dirty")
