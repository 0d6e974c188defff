"""Set-associative cache model with LRU replacement, dirty bits and
way-locking.

All caches in the simulator operate on *block addresses* (byte address
divided by the 64B block size).  Metadata caches additionally tag their
addresses with an address-space id (see :mod:`repro.mem.spaces`) so one
cache can hold blocks from several physical regions without aliasing.

The model is functional for *presence*: a block is either cached or not,
and eviction returns the victim so the caller can account for write-backs.
Timing is the caller's job (latencies come from the config).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.sim.config import CacheConfig
from repro.sim.profiler import NULL_PROFILER
from repro.sim.stats import Counter
from repro.sim.trace import NULL_TRACER


@dataclass(slots=True)
class Eviction:
    """A victim block pushed out by a fill."""

    addr: int
    dirty: bool


class Cache:
    """LRU set-associative cache keyed by integer block address."""

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        if config.assoc <= 0:
            raise ValueError("associativity must be positive")
        self.config = config
        self.name = name
        # Null defaults so the hot paths never None-check; the simulator
        # installs real instances cache-wide when tracing or profiling
        # is on.  Only MirageCache reads ``profiler`` ("mirage_hash").
        self.tracer = NULL_TRACER
        self.profiler = NULL_PROFILER
        self.n_sets = config.n_sets
        self.assoc = config.assoc
        # Each set: OrderedDict addr -> (dirty, locked); LRU = first item.
        self._sets: list[OrderedDict[int, list]] = [
            OrderedDict() for _ in range(self.n_sets)
        ]
        self.stats = Counter()
        self.evictions = 0
        self.writebacks = 0
        #: Number of locked entries across all sets.  Locking is rare
        #: (TreeLing root pinning); while the count is zero the victim
        #: pick is simply the LRU head, no per-entry locked scan.
        self._locked = 0

    # -- mapping ------------------------------------------------------------

    def set_index(self, addr: int) -> int:
        return addr % self.n_sets

    # -- queries ------------------------------------------------------------

    def contains(self, addr: int) -> bool:
        return addr in self._sets[self.set_index(addr)]

    def lookup(self, addr: int, is_write: bool = False) -> bool:
        """Probe the cache; updates LRU and stats.  Returns hit/miss.

        ``set_index`` is inlined (subclasses with a different mapping
        override ``lookup`` wholesale, so the shortcut is safe).
        """
        s = self._sets[addr % self.n_sets]
        entry = s.get(addr)
        if entry is None:
            self.stats.misses += 1
            return False
        s.move_to_end(addr)
        if is_write:
            entry[0] = True
        self.stats.hits += 1
        return True

    def touch_dirty(self, addr: int) -> bool:
        """Single-probe equivalent of ``contains(addr)`` followed by
        ``lookup(addr, is_write=True)`` on the present branch.

        On a hit: refresh LRU, set the dirty bit, count the hit.  On
        absence: touch neither stats nor LRU (exactly what the
        contains-then-lookup pair did — ``contains`` never counted, and
        the ``lookup`` was only issued after a positive ``contains``).
        ``set_index`` is inlined like in ``lookup`` (subclasses with a
        different mapping override this wholesale).
        """
        s = self._sets[addr % self.n_sets]
        entry = s.get(addr)
        if entry is None:
            return False
        s.move_to_end(addr)
        entry[0] = True
        self.stats.hits += 1
        return True

    # -- fills / evictions ---------------------------------------------------

    def fill(self, addr: int, dirty: bool = False,
             locked: bool = False) -> Optional[Eviction]:
        """Insert ``addr``; return the evicted victim, if any.

        Locked entries are never selected as victims.  If the whole set is
        locked, the fill is dropped (callers lock at most a bounded number
        of blocks, so this only happens in adversarial unit tests).
        """
        s = self._sets[addr % self.n_sets]
        entry = s.get(addr)
        if entry is not None:
            entry[0] = entry[0] or dirty
            if locked and not entry[1]:
                entry[1] = True
                self._locked += 1
            s.move_to_end(addr)
            return None
        victim = None
        if len(s) >= self.assoc:
            ev = self._evict(s)
            if ev is None:
                return None  # fully locked set: drop the fill
            victim = Eviction(*ev)
        if locked:
            self._locked += 1
        s[addr] = [dirty, locked]
        return victim

    def _evict(self, s: OrderedDict[int, list]) -> Optional[tuple]:
        """Make room in the full set ``s`` for a fill: drop its LRU
        unlocked entry, count the eviction (and write-back) and emit the
        ``evict`` event.  Returns ``(victim, dirty)``, or None when every
        way is locked (the fill is then dropped)."""
        if self._locked:
            # iteration order = LRU first
            victim = next((a for a, e in s.items() if not e[1]), None)
            if victim is None:
                return None
            vdirty = s.pop(victim)[0]
        else:
            # LRU head; nothing is locked.  popitem(last=False) is the
            # fused form of next(iter(s)) + pop(victim).
            victim, ventry = s.popitem(last=False)
            vdirty = ventry[0]
        self.evictions += 1
        if vdirty:
            self.writebacks += 1
        if self.tracer.enabled:
            self.tracer.instant("cache", "evict", cache=self.name,
                                addr=victim, dirty=vdirty)
        return victim, vdirty

    def invalidate(self, addr: int) -> bool:
        s = self._sets[self.set_index(addr)]
        entry = s.pop(addr, None)
        if entry is None:
            return False
        if entry[1]:
            self._locked -= 1
        return True

    def lock(self, addr: int) -> None:
        """Pin ``addr`` so it can never be evicted (TreeLing root locking)."""
        s = self._sets[self.set_index(addr)]
        entry = s.get(addr)
        if entry is not None:
            if not entry[1]:
                entry[1] = True
                self._locked += 1
        else:
            self.fill(addr, locked=True)

    # -- candidate priming and known-absent fills ----------------------------

    def prime_candidates(self, addrs) -> None:
        """Hook for randomized caches: pre-compute hashed set candidates
        for a batch of addresses.  Direct-indexed caches need nothing."""

    def fill_absent(self, addr: int, dirty: bool = False) -> Optional[int]:
        """``fill`` for an address the caller just saw miss: the presence
        probe is skipped and no :class:`Eviction` is allocated.  Returns
        the *dirty* victim's address, or None (a clean eviction needs no
        write-back).  Emits the same ``evict`` event as ``fill``."""
        s = self._sets[addr % self.n_sets]
        wb = None
        if len(s) >= self.assoc:
            ev = self._evict(s)
            if ev is None:
                return None  # fully locked set: drop the fill
            if ev[1]:
                wb = ev[0]
        s[addr] = [dirty, False]
        return wb

    # -- introspection -------------------------------------------------------

    def register_stats(self, registry, name: str | None = None) -> None:
        """Register hit/miss/eviction counters with a StatsRegistry."""
        name = name or self.name
        registry.register(name, self.stats)
        registry.register(name, self, ("evictions", "writebacks"))

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def blocks(self) -> Iterator[int]:
        for s in self._sets:
            yield from s.keys()

    def flush(self) -> int:
        """Drop every non-locked block; returns the dirty write-back count."""
        dirty = 0
        for s in self._sets:
            keep = {a: e for a, e in s.items() if e[1]}
            dirty += sum(1 for a, e in s.items() if e[0] and not e[1])
            s.clear()
            s.update(keep)
        return dirty

