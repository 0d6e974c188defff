"""MIRAGE-style randomized cache.

The paper's baseline integrates MIRAGE (Saileshwar & Qureshi, USENIX
Security'21) in the shared LLC and the metadata caches to rule out
conflict-based (Prime+Probe) attacks, leaving only the *metadata sharing*
channel that IvLeague targets.  We model the two properties that matter
for our experiments:

* the address-to-set mapping is keyed and skewed (two hash candidates,
  power-of-two-choices placement), so an attacker cannot build eviction
  sets from addresses; and
* replacement is *global random* among the candidate frames, so eviction
  timing carries no deterministic set information.

Functionally it remains a presence/eviction cache compatible with
:class:`repro.mem.cache.Cache` so engines can use either interchangeably.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.mem.cache import Cache, Eviction
from repro.sim.config import CacheConfig


def _mix(value: int, key: int) -> int:
    """Cheap keyed integer hash (splitmix64 finaliser)."""
    z = (value + key) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


class MirageCache(Cache):
    """Skewed, keyed-index cache with random replacement."""

    def __init__(self, config: CacheConfig, name: str = "mirage",
                 seed: int = 0xC0FFEE) -> None:
        super().__init__(config, name)
        self._rng = np.random.default_rng(seed)
        self._key0 = int(self._rng.integers(1, 2**63))
        self._key1 = int(self._rng.integers(1, 2**63))
        # The keyed hashes are pure functions of the address, and the
        # address working set is bounded by the workload footprint, so
        # both skew indices are memoized (the double splitmix64 was the
        # single hottest pure computation in a cold cell).
        self._cand: dict[int, tuple[int, int]] = {}
        # Power-of-two-choices placement balance (how often each skew
        # won); the spread is a cheap health check on the keyed hashes.
        self.skew0_fills = 0
        self.skew1_fills = 0

    # Two candidate skews; an address lives in exactly one set, chosen at
    # fill time by load (power of two choices), remembered via lookup in
    # both candidates.
    def _candidates(self, addr: int) -> tuple[int, int]:
        cand = self._cand.get(addr)
        if cand is None:
            # Profiler guard lives on the memoization *miss* branch only:
            # memoized probes (the overwhelming majority once the working
            # set is warm) never touch it.
            prof = self.profiler
            profiling = prof.enabled
            if profiling:
                prof.push("mirage_hash")
            cand = self._cand[addr] = (
                _mix(addr, self._key0) % self.n_sets,
                _mix(addr, self._key1) % self.n_sets)
            if profiling:
                prof.pop()
        return cand

    def prime_candidates(self, addrs) -> None:
        """Batch-hash the skew candidates for every address in ``addrs``
        that is not memoized yet.

        The per-address path computes two splitmix64 finalisers in pure
        Python; resolving a whole verification path (or any other known
        address batch) at once lets numpy vectorise the mixing.  uint64
        arithmetic wraps exactly like the ``& 0xFFFF...`` masking of
        :func:`_mix`, so the memoized values are identical ints.
        """
        cand = self._cand
        missing = [a for a in addrs if a not in cand]
        if not missing:
            return
        prof = self.profiler
        profiling = prof.enabled
        if profiling:
            prof.push("mirage_hash")
        n_sets = np.uint64(self.n_sets)
        base = np.asarray(missing, dtype=np.uint64)

        def mixed(key: int) -> list:
            z = base + np.uint64(key)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            return ((z ^ (z >> np.uint64(31))) % n_sets).tolist()

        with np.errstate(over="ignore"):
            for addr, a, b in zip(missing, mixed(self._key0),
                                  mixed(self._key1)):
                cand[addr] = (a, b)
        if profiling:
            prof.pop()

    def set_index(self, addr: int) -> int:  # pragma: no cover - unused path
        return self._candidates(addr)[0]

    def contains(self, addr: int) -> bool:
        c0, c1 = self._candidates(addr)
        return addr in self._sets[c0] or addr in self._sets[c1]

    def lookup(self, addr: int, is_write: bool = False) -> bool:
        cand = self._cand.get(addr)
        if cand is None:
            cand = self._candidates(addr)
        sets = self._sets
        s = sets[cand[0]]
        entry = s.get(addr)
        if entry is None:
            s = sets[cand[1]]
            entry = s.get(addr)
        if entry is not None:
            if is_write:
                entry[0] = True
            s.move_to_end(addr)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def fill(self, addr: int, dirty: bool = False,
             locked: bool = False) -> Optional[Eviction]:
        cand = self._candidates(addr)
        for idx in cand:
            entry = self._sets[idx].get(addr)
            if entry is not None:
                entry[0] = entry[0] or dirty
                if locked and not entry[1]:
                    entry[1] = True
                    self._locked += 1
                return None
        s = self._place(addr, cand)
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

    def _place(self, addr: int, cand: tuple[int, int]):
        """Power-of-two-choices placement: the emptier of ``addr``'s two
        candidate sets (ties go to skew 0), counted per skew.

        The victim inside the chosen set is then the LRU one
        (:meth:`Cache._evict`): MIRAGE's global eviction is
        security-motivated; performance-wise it tracks an LRU-class
        policy, which is what matters here.
        """
        sets = self._sets
        s0 = sets[cand[0]]
        s1 = sets[cand[1]]
        if len(s0) <= len(s1):
            s = s0
            skew = 0
            self.skew0_fills += 1
        else:
            s = s1
            skew = 1
            self.skew1_fills += 1
        if self.tracer.enabled:
            # The load-balanced placement depends on global set
            # occupancy, i.e. on *other* domains' traffic -- exactly the
            # coupling the leakage checker needs to see, so the chosen
            # skew is an observable of its own.
            self.tracer.instant("cache", "place", cache=self.name,
                                addr=addr, skew=skew)
        return s

    def touch_dirty(self, addr: int) -> bool:
        """Single-probe contains+dirty-lookup, mirroring
        :meth:`repro.mem.cache.Cache.touch_dirty` over both skews."""
        cand = self._cand.get(addr)
        if cand is None:
            cand = self._candidates(addr)
        sets = self._sets
        s = sets[cand[0]]
        entry = s.get(addr)
        if entry is None:
            s = sets[cand[1]]
            entry = s.get(addr)
            if entry is None:
                return False
        s.move_to_end(addr)
        entry[0] = True
        self.stats.hits += 1
        return True

    def fill_absent(self, addr: int, dirty: bool = False) -> Optional[int]:
        """Known-absent fill: :meth:`Cache.fill_absent` with ``fill``'s
        skewed placement (and its ``place`` event)."""
        cand = self._cand.get(addr)
        if cand is None:
            cand = self._candidates(addr)
        s = self._place(addr, cand)
        wb = None
        if len(s) >= self.assoc:
            ev = self._evict(s)
            if ev is None:
                return None  # fully locked set: drop the fill
            if ev[1]:
                wb = ev[0]
        s[addr] = [dirty, False]
        return wb

    def register_stats(self, registry, name: str | None = None) -> None:
        """PR 1 missed the MIRAGE-specific counters: register the skew
        placement split on top of the base hit/miss/eviction set, and pin
        it down with a conservation law (every eviction was caused by a
        placement into some skew)."""
        super().register_stats(registry, name)
        name = name or self.name
        registry.register(name, self, ("skew0_fills", "skew1_fills"))
        registry.add_bound(
            f"{name}-mirage-eviction-bound",
            f"{name}.evictions", lambda: self.evictions,
            f"{name} skew0+skew1 fills",
            lambda: self.skew0_fills + self.skew1_fills)

    def invalidate(self, addr: int) -> bool:
        for idx in self._candidates(addr):
            entry = self._sets[idx].pop(addr, None)
            if entry is not None:
                if entry[1]:
                    self._locked -= 1
                return True
        return False

    def lock(self, addr: int) -> None:
        for idx in self._candidates(addr):
            entry = self._sets[idx].get(addr)
            if entry is not None:
                if not entry[1]:
                    entry[1] = True
                    self._locked += 1
                return
        self.fill(addr, locked=True)


def make_cache(config: CacheConfig, name: str, seed: int = 0) -> Cache:
    """Factory honouring ``config.randomized``."""
    if config.randomized:
        return MirageCache(config, name, seed=seed or 0xC0FFEE)
    return Cache(config, name)
