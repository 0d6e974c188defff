"""Tests for the OS-model substrate: allocator, page table, TLB, process."""

import hashlib
import tracemalloc
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.osmodel.allocator import FrameAllocator, OutOfMemoryError
from repro.osmodel.pagetable import (CLASSIC_BITS, IVLEAGUE_BITS, PageTable)
from repro.osmodel.process import DomainRegistry, Process
from repro.osmodel.tlb import TLB


class TestAllocator:
    def test_alloc_free_roundtrip(self):
        a = FrameAllocator(64, policy="sequential")
        pfn = a.alloc(owner=1)
        assert a.owner_of(pfn) == 1
        a.free(pfn)
        assert a.owner_of(pfn) is None

    def test_sequential_policy_is_contiguous(self):
        a = FrameAllocator(16, policy="sequential")
        assert [a.alloc(1) for _ in range(4)] == [0, 1, 2, 3]

    def test_random_policy_is_permuted(self):
        a = FrameAllocator(4096, policy="random", seed=3)
        first = [a.alloc(1) for _ in range(16)]
        assert first != sorted(first)

    def test_fragmented_policy_has_runs(self):
        a = FrameAllocator(4096, policy="fragmented", seed=3)
        got = [a.alloc(1) for _ in range(512)]
        # within a 256-frame run allocations are contiguous
        assert got[1] == got[0] + 1
        # but across runs they jump
        assert any(abs(got[i + 1] - got[i]) > 1 for i in range(511))

    def test_exhaustion_raises(self):
        a = FrameAllocator(2, policy="sequential")
        a.alloc(1)
        a.alloc(1)
        with pytest.raises(OutOfMemoryError):
            a.alloc(1)

    def test_double_free_rejected(self):
        a = FrameAllocator(4, policy="sequential")
        pfn = a.alloc(1)
        a.free(pfn)
        with pytest.raises(ValueError):
            a.free(pfn)

    def test_alloc_in_range(self):
        a = FrameAllocator(128, policy="random", seed=1)
        pfn = a.alloc_in_range(1, 32, 64)
        assert 32 <= pfn < 64

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            FrameAllocator(4, policy="chaotic")

    def test_free_frames_excludes_range_allocations(self):
        a = FrameAllocator(8, policy="sequential")
        a.alloc_in_range(1, 0, 4)
        a.alloc(1)
        assert (a.free_frames, a.used_frames) == (6, 2)


class ListAllocator:
    """Reference model: the free stack as one Python list of every frame
    (the allocator before the chunked stack), with ``free_frames``
    counting unowned frames.  Same RNG draws, same stack layout."""

    def __init__(self, n_frames: int, policy: str, seed: int) -> None:
        self.n_frames = n_frames
        self.policy = policy
        self._rng = np.random.default_rng(seed)
        if policy == "random":
            order = self._rng.permutation(n_frames)
        else:
            order = np.arange(n_frames)
            if policy == "fragmented":
                run = 256
                n_runs = n_frames // run
                perm = self._rng.permutation(n_runs)
                order = (perm[:, None] * run
                         + np.arange(run)[None, :]).reshape(-1)
                tail = np.arange(n_runs * run, n_frames)
                order = np.concatenate([order, tail])
        self._free = order[::-1].tolist()
        self._owner: dict[int, int] = {}
        self._range_cache: dict[tuple[int, int], list[int]] = {}

    @property
    def free_frames(self) -> int:
        return self.n_frames - len(self._owner)

    @property
    def used_frames(self) -> int:
        return len(self._owner)

    def owner_of(self, pfn: int) -> Optional[int]:
        return self._owner.get(pfn)

    def alloc(self, owner: int) -> int:
        while self._free:
            pfn = self._free.pop()
            if pfn not in self._owner:
                self._owner[pfn] = owner
                return pfn
        raise OutOfMemoryError("physical memory exhausted")

    def alloc_in_range(self, owner: int, lo: int, hi: int) -> int:
        key = (lo, hi)
        stack = self._range_cache.get(key)
        if stack is None:
            stack = [f for f in self._free if lo <= f < hi][::-1]
            self._range_cache[key] = stack
        while stack:
            pfn = stack.pop()
            if pfn not in self._owner:
                self._owner[pfn] = owner
                return pfn
        refill = [f for f in self._free
                  if lo <= f < hi and f not in self._owner]
        if refill:
            self._range_cache[key] = refill[::-1]
            return self.alloc_in_range(owner, lo, hi)
        raise OutOfMemoryError(f"no free frame in [{lo}, {hi})")

    def free(self, pfn: int) -> None:
        owner = self._owner.pop(pfn, None)
        if owner is None:
            raise ValueError(f"double free of frame {pfn}")
        if self.policy == "fragmented" and self._free:
            idx = int(self._rng.integers(len(self._free) + 1))
            self._free.insert(idx, pfn)
        else:
            self._free.append(pfn)


@st.composite
def allocator_scripts(draw):
    """An allocator shape plus a random op sequence over it: allocs,
    range allocs (mostly over a fixed partition of the frames, so a
    range's snapshot runs dry and is refilled), frees of live frames,
    double frees, frees of frames never handed out, and enough allocs to
    hit OOM.  Small sizes give few chunks; sizes of 256 frames and more
    give the fragmented policy whole runs to scatter."""
    n_frames = draw(st.one_of(st.integers(0, 16), st.integers(256, 800)))
    policy = draw(st.sampled_from(FrameAllocator.POLICIES))
    chunk = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2 ** 16))
    parts = draw(st.integers(1, 4))
    bounds = [i * n_frames // parts for i in range(parts + 1)]
    owner = st.integers(0, 3)
    pick = st.integers(0, 10 ** 6)
    partition = st.builds(lambda o, i: ("range", o, bounds[i], bounds[i + 1]),
                          owner, st.integers(0, parts - 1))
    anywhere = st.builds(
        lambda o, lo, w: ("range", o, lo, min(lo + w, n_frames)),
        owner, st.integers(0, max(n_frames - 1, 0)), st.integers(1, 64))
    op = st.one_of(
        st.tuples(st.just("alloc"), owner),
        partition, partition, anywhere,
        st.tuples(st.just("free"), pick),
        st.tuples(st.just("free"), pick),
        st.tuples(st.just("double_free"), pick),
        st.tuples(st.just("free_raw"), st.integers(0, n_frames)),
    )
    ops = draw(st.lists(op, max_size=150))
    return n_frames, policy, chunk, seed, ops


def _stack(a: FrameAllocator) -> list[int]:
    return [int(f) for c in a._chunks for f in c]


def _outcome(call):
    try:
        return call()
    except (OutOfMemoryError, ValueError) as exc:
        return type(exc), str(exc)


def _run_both(n_frames, policy, chunk, seed, ops) -> None:
    """Drive a chunked allocator with ``chunk``-frame chunks and the
    list reference through ``ops``; they must agree after every op."""
    cls = type("SmallChunks", (FrameAllocator,), {"CHUNK": chunk})
    a = cls(n_frames, policy=policy, seed=seed)
    ref = ListAllocator(n_frames, policy, seed)
    live: list[int] = []
    freed: list[int] = []
    for op in ops:
        kind = op[0]
        if kind == "alloc":
            def call(x, owner=op[1]):
                return x.alloc(owner)
        elif kind == "range":
            def call(x, owner=op[1], lo=op[2], hi=op[3]):
                return x.alloc_in_range(owner, lo, hi)
        elif kind == "free" and live:
            pfn = live.pop(op[1] % len(live))
            freed.append(pfn)

            def call(x, pfn=pfn):
                return x.free(pfn)
        elif kind == "double_free" and freed:
            def call(x, pfn=freed[op[1] % len(freed)]):
                return x.free(pfn)
        elif kind == "free_raw":
            def call(x, pfn=op[1]):
                return x.free(pfn)
        else:
            continue
        got = _outcome(lambda: call(a))
        assert got == _outcome(lambda: call(ref)), op
        if isinstance(got, int):
            live.append(got)
            assert a.owner_of(got) == ref.owner_of(got)
        assert (a.free_frames, a.used_frames) == \
            (ref.free_frames, ref.used_frames)
        assert a._depth == len(ref._free)
        assert _stack(a) == ref._free
        assert a._ends.tolist() == \
            np.cumsum([len(c) for c in a._chunks]).tolist()
        assert all(0 < len(c) <= 2 * chunk for c in a._chunks)
    assert a._rng.integers(1 << 30) == ref._rng.integers(1 << 30)


class TestChunkedAllocatorMatchesList:
    @given(allocator_scripts())
    @settings(max_examples=400, deadline=None)
    def test_differential(self, script):
        _run_both(*script)

    @pytest.mark.parametrize("policy", FrameAllocator.POLICIES)
    def test_range_refill_order(self, policy):
        # Drain a range, free three of its frames back onto the main
        # stack, then take them again through the refill path.
        ops = [("range", 1, 0, 8)] * 8 + [("free", 0), ("free", 2),
                                          ("free", 3)]
        ops += [("range", 2, 0, 8)] * 4
        _run_both(16, policy, 2, 5, ops)

    def test_fragmented_free_onto_one_frame(self):
        # A fragmented free draws a depth even when one frame is left.
        ops = [("alloc", 1), ("free", 0), ("alloc", 1), ("alloc", 1),
               ("free", 0), ("free", 0)]
        _run_both(2, "fragmented", 1, 3, ops)


def _pin_script(a) -> str:
    got = [a.alloc(1) for _ in range(5000)]
    for pfn in got[::3]:
        a.free(pfn)
    got += [a.alloc(2) for _ in range(2000)]
    got += [a.alloc_in_range(3, 1 << 16, 1 << 17) for _ in range(300)]
    for pfn in got[5000:5500]:
        a.free(pfn)
    got += [a.alloc(4) for _ in range(1000)]
    return hashlib.sha256(",".join(map(str, got)).encode()).hexdigest()


# Computed with the list-based allocator (the ListAllocator above) at
# scaled_config().memory_pages, seed 123 (the Simulator's default seed).
PINNED_PFN_DIGESTS = {
    "random":
        "16f4c06f51604dc1f4c845f27d526433475334df610b092f144009514becc8ec",
    "sequential":
        "a091a477b3719c6387e133a0010130061b8383ed2f53988dba5cd389f163d48f",
    "fragmented":
        "a46e5fcea7fd5bc4828325e751adf9d057c9d9cdc7e66c958e552bc9ef45e17d",
}


@pytest.mark.parametrize("policy", FrameAllocator.POLICIES)
def test_pfn_sequence_pinned_at_scaled_config(policy):
    from repro.sim.config import scaled_config
    a = FrameAllocator(scaled_config().memory_pages, policy=policy,
                       seed=123)
    assert _pin_script(a) == PINNED_PFN_DIGESTS[policy]


@pytest.mark.parametrize("policy", FrameAllocator.POLICIES)
def test_construction_memory_is_bounded_per_frame(policy):
    """At the paper's 32GB the free stack must cost about one int64 per
    frame (a list of Python ints costs ~40 bytes per frame)."""
    from repro.sim.config import paper_config
    n = paper_config().memory_pages
    tracemalloc.start()
    try:
        a = FrameAllocator(n, policy=policy, seed=123)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert a.free_frames == n
    assert held <= 9 * n


class TestPageTable:
    def test_map_translate_unmap(self):
        pt = PageTable(asid=1)
        pt.map(100, 55)
        assert pt.translate(100) == 55
        assert pt.unmap(100) == 55
        assert pt.translate(100) is None

    def test_double_map_rejected(self):
        pt = PageTable(asid=1)
        pt.map(1, 2)
        with pytest.raises(ValueError):
            pt.map(1, 3)

    def test_leaf_id_requires_extended(self):
        pt = PageTable(asid=1, extended=False)
        with pytest.raises(ValueError):
            pt.map(1, 2, leaf_id=9)

    def test_extended_pte_stores_leaf(self):
        pt = PageTable(asid=1, extended=True)
        pt.map(1, 2, leaf_id=77)
        assert pt.leaf_of(1) == 77
        pt.set_leaf(1, 99)
        assert pt.leaf_of(1) == 99

    def test_extended_layout_halves_leaf_fanout(self):
        classic = PageTable(1)
        extended = PageTable(2, extended=True)
        assert classic.entries_per_leaf_page() == 512
        assert extended.entries_per_leaf_page() == 256
        assert classic.bits == CLASSIC_BITS
        assert extended.bits == IVLEAGUE_BITS

    def test_walk_touches_one_block_per_level(self):
        pt = PageTable(asid=3, extended=True)
        pt.map(42, 7, leaf_id=5)
        walk = pt.walk(42)
        assert walk.pfn == 7
        assert walk.leaf_id == 5
        assert len(walk.touched_blocks) == len(IVLEAGUE_BITS)
        assert len(set(walk.touched_blocks)) == len(walk.touched_blocks)

    def test_walk_page_fault(self):
        pt = PageTable(asid=1)
        with pytest.raises(KeyError):
            pt.walk(404)

    def test_neighbouring_vpns_share_walk_prefix(self):
        pt = PageTable(asid=1)
        pt.map(64, 1)
        pt.map(65, 2)
        w1, w2 = pt.walk(64), pt.walk(65)
        # top levels identical, leaf level may differ
        assert w1.touched_blocks[1:] == w2.touched_blocks[1:]


class TestTLB:
    def test_hit_after_insert(self):
        t = TLB(entries=16, assoc=4)
        t.insert(1, 100, 7)
        assert t.lookup(1, 100) == 7
        assert t.stats.hits == 1

    def test_asid_isolation(self):
        t = TLB(entries=16, assoc=4)
        t.insert(1, 100, 7)
        assert t.lookup(2, 100) is None

    def test_eviction_hook_fires(self):
        evicted = []
        t = TLB(entries=4, assoc=1,
                on_evict=lambda a, v, p: evicted.append((a, v, p)))
        for vpn in range(0, 64, 4):  # same set under vpn % n_sets
            t.insert(1, vpn, vpn + 1)
        assert evicted

    def test_flush_asid(self):
        t = TLB(entries=16, assoc=4)
        t.insert(1, 1, 1)
        t.insert(1, 2, 2)
        t.insert(2, 3, 3)
        assert t.flush_asid(1) == 2
        assert t.lookup(2, 3) == 3

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            TLB(entries=10, assoc=4)


class TestProcess:
    def make(self):
        alloc = FrameAllocator(256, policy="sequential")
        return Process(1, "p", alloc)

    def test_allocate_and_free_page(self):
        p = self.make()
        ev = p.allocate_page()
        assert p.footprint_pages == 1
        assert p.translate(ev.vpn) == ev.pfn
        ev2 = p.free_page(ev.vpn)
        assert ev2.pfn == ev.pfn
        assert p.footprint_pages == 0

    def test_free_unknown_vpn_rejected(self):
        p = self.make()
        with pytest.raises(KeyError):
            p.free_page(1234)

    def test_registry(self):
        reg = DomainRegistry()
        p = self.make()
        reg.register(p)
        assert reg[1] is p
        with pytest.raises(ValueError):
            reg.register(p)
        assert reg.remove(1) is p
