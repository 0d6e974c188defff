"""Physical frame allocator.

The TEE threat model makes the OS untrusted, so secure hardware cannot
assume a domain's frames are contiguous or confined to a region -- the
motivating problem for static tree partitioning (Section V).  The default
``random`` policy models a fragmented, adversarial-ish OS; ``sequential``
models a freshly-booted first-touch allocator (used by some tests and by
the static-partitioning comparator, which *requires* region-confined
allocation to work at all).

The free list is a stack of int64 chunks (bottom chunk first, top of the
stack at the end of the last chunk).  The chunks start as views of the
initial frame order, so construction allocates one array and no Python
int per frame.  ``alloc`` and ``free`` cost at most one chunk plus a
numpy pass over the chunk index, never the whole of modelled DRAM; only
``alloc_in_range``'s once-per-range snapshot scans every chunk.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class OutOfMemoryError(RuntimeError):
    """No free physical frame is available."""


class FrameAllocator:
    """Allocates physical frame numbers (PFNs)."""

    POLICIES = ("random", "sequential", "fragmented")
    #: Frames per chunk of the free stack.  A chunk that grows past twice
    #: this through frees is split in two.
    CHUNK = 4096

    def __init__(self, n_frames: int, policy: str = "random",
                 seed: int = 7) -> None:
        if policy not in self.POLICIES:
            raise ValueError(f"unknown policy: {policy}")
        self.n_frames = n_frames
        self.policy = policy
        self._rng = np.random.default_rng(seed)
        if policy == "random":
            order = self._rng.permutation(n_frames)
        else:
            # ``sequential``: fresh-boot buddy allocator, fully contiguous.
            # ``fragmented``: the steady state of a long-running machine --
            # the buddy allocator still hands out contiguous runs
            # (256 frames / 1MB here) but the runs themselves are
            # scattered, and freed frames re-enter the free list at
            # random positions.
            # A static page-to-tree mapping loses most of its spatial
            # adjacency in this regime; IvLeague's fault-order slot
            # packing is unaffected by it.
            order = np.arange(n_frames)
            if policy == "fragmented":
                run = 256
                n_runs = n_frames // run
                perm = self._rng.permutation(n_runs)
                # Written in place over the run-aligned prefix (the tail
                # stays sequential), so no second frame array is built.
                np.add(perm[:, None] * run, np.arange(run),
                       out=order[:n_runs * run].reshape(n_runs, run))
        # order[0] is handed out first, so it is the top of the stack.
        stack = order[::-1]
        self._chunks = [stack[i:i + self.CHUNK]
                        for i in range(0, n_frames, self.CHUNK)]
        # _ends[k]: stack depth at the top of chunk k (cumulative sizes).
        self._ends = np.cumsum([len(c) for c in self._chunks],
                               dtype=np.int64)
        self._owner: dict[int, int] = {}
        # Lazily-built per-range stacks for alloc_in_range (static
        # partitioning), handed out from the front.  Frames handed out
        # there stay on the main stack; alloc() skips already-owned
        # frames when popping.
        self._range_cache: dict[tuple[int, int], np.ndarray] = {}

    @property
    def free_frames(self) -> int:
        return self.n_frames - len(self._owner)

    @property
    def used_frames(self) -> int:
        return len(self._owner)

    @property
    def _depth(self) -> int:
        """Entries on the free stack, stale range-allocated ones included
        (the fragmented free's random draw is over this depth)."""
        return int(self._ends[-1]) if self._chunks else 0

    def owner_of(self, pfn: int) -> Optional[int]:
        return self._owner.get(pfn)

    def alloc(self, owner: int) -> int:
        """Allocate one frame for ``owner``; raises when memory is full."""
        chunks, owned = self._chunks, self._owner
        while chunks:
            top = chunks[-1]
            pfn = int(top[-1])
            if len(top) > 1:
                chunks[-1] = top[:-1]
                self._ends[-1] -= 1
            else:
                chunks.pop()
                self._ends = self._ends[:-1]
            if pfn not in owned:   # may have gone out via a range
                owned[pfn] = owner
                return pfn
        raise OutOfMemoryError("physical memory exhausted")

    def alloc_in_range(self, owner: int, lo: int, hi: int) -> int:
        """Allocate a frame in [lo, hi) -- used by static partitioning
        (the OS must confine each domain to its partition's chunk).

        Amortised O(1): the first call for a range snapshots the free
        frames inside it, bottom of the main stack first; later calls
        take from that snapshot, skipping frames that were meanwhile
        taken or freed elsewhere.
        """
        key = (lo, hi)
        stack = self._range_cache.get(key)
        if stack is None:
            stack = self._in_range(lo, hi)
        owned = self._owner
        i = 0
        while i < len(stack) and int(stack[i]) in owned:
            i += 1
        if i == len(stack):
            # Slow path: pick up frames freed back into the range after
            # the snapshot was taken.
            stack = np.array([f for f in self._in_range(lo, hi).tolist()
                              if f not in owned], dtype=np.int64)
            i = 0
            if not len(stack):
                self._range_cache[key] = stack
                raise OutOfMemoryError(f"no free frame in [{lo}, {hi})")
        pfn = int(stack[i])
        owned[pfn] = owner
        self._range_cache[key] = stack[i + 1:]
        return pfn

    def free(self, pfn: int) -> None:
        owner = self._owner.pop(pfn, None)
        if owner is None:
            raise ValueError(f"double free of frame {pfn}")
        depth = self._depth
        if self.policy == "fragmented" and depth:
            # Freed frames land at a random depth of the free list, so
            # they are reused at arbitrary later times / places.
            self._insert(int(self._rng.integers(depth + 1)), pfn)
        else:
            self._insert(depth, pfn)

    def _in_range(self, lo: int, hi: int) -> np.ndarray:
        """Free-stack entries in [lo, hi), bottom first, stale included."""
        parts = [c[(c >= lo) & (c < hi)] for c in self._chunks]
        return np.concatenate(parts) if parts else np.empty(0, np.int64)

    def _insert(self, depth: int, pfn: int) -> None:
        """Put ``pfn`` at ``depth`` of the free stack (0 is the bottom),
        rebuilding only the chunk that holds that depth."""
        chunks, ends = self._chunks, self._ends
        if not chunks:
            chunks.append(np.array([pfn], dtype=np.int64))
            self._ends = np.ones(1, dtype=np.int64)
            return
        k = int(np.searchsorted(ends, depth))   # first chunk ending >= depth
        off = depth - (int(ends[k - 1]) if k else 0)
        c = chunks[k]
        c = np.concatenate((c[:off], np.array([pfn], dtype=np.int64),
                            c[off:]))
        ends[k:] += 1
        if len(c) <= 2 * self.CHUNK:
            chunks[k] = c
            return
        half = len(c) // 2
        chunks[k:k + 1] = [c[:half], c[half:]]
        self._ends = np.insert(ends, k, ends[k] - (len(c) - half))
