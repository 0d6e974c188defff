"""Fully static integrity-tree partitioning (paper Section V, Fig. 4a).

The global tree is split into ``n_partitions`` equal subtrees, each
covering a fixed contiguous chunk of physical memory, each with its root
held on-chip.  A domain is bound to one partition at creation.  This is
the isolation comparator the paper contrasts IvLeague against:

* it cannot scale the number of domains at runtime (one partition each);
* a domain whose footprint exceeds its chunk *fails* (needs swapping);
* the untrusted OS must keep each domain's frames inside its chunk.

The engine enforces the containment rule and raises
:class:`PartitionOverflow` when violated, which is exactly the failure
the Fig. 22 success-rate analysis counts.
"""

from __future__ import annotations

from repro.secure.bmt import TreeGeometry
from repro.secure.engine import SecureMemoryEngine
from repro.sim.config import MachineConfig


class PartitionOverflow(RuntimeError):
    """A domain touched memory outside its static partition."""


class NoFreePartition(RuntimeError):
    """More live domains than partitions."""


class StaticPartitionEngine(SecureMemoryEngine):
    """Per-domain statically partitioned subtrees with on-chip roots."""

    name = "static-partition"

    def __init__(self, config: MachineConfig, n_partitions: int = 8,
                 seed: int = 11) -> None:
        super().__init__(config, seed)
        if n_partitions < 1:
            raise ValueError("need at least one partition")
        self.n_partitions = n_partitions
        self.pages_per_partition = config.memory_pages // n_partitions
        if self.pages_per_partition < 1:
            raise ValueError("more partitions than pages")
        # One subtree shape shared by all partitions; node addresses are
        # offset per partition so no blocks are shared.
        self.sub_geo = TreeGeometry(self.pages_per_partition)
        self._free_partitions = list(range(n_partitions - 1, -1, -1))
        self._partition_of: dict[int, int] = {}

    # -- domain lifecycle ---------------------------------------------------------

    def on_domain_start(self, domain: int) -> None:
        super().on_domain_start(domain)
        if domain in self._partition_of:
            return
        if not self._free_partitions:
            raise NoFreePartition(
                f"all {self.n_partitions} partitions are in use")
        self._partition_of[domain] = self._free_partitions.pop()

    def on_domain_end(self, domain: int) -> None:
        part = self._partition_of.pop(domain, None)
        if part is not None:
            self._free_partitions.append(part)

    def partition_of(self, domain: int) -> int:
        return self._partition_of[domain]

    def frame_range(self, domain: int) -> tuple[int, int]:
        """[lo, hi) PFN range the OS must allocate from for ``domain``."""
        part = self._partition_of[domain]
        lo = part * self.pages_per_partition
        return lo, lo + self.pages_per_partition

    # -- verification ---------------------------------------------------------------

    def _check_containment(self, domain: int, pfn: int) -> int:
        part = self._partition_of.get(domain)
        if part is None:
            raise KeyError(f"domain {domain} was never started")
        lo = part * self.pages_per_partition
        if not lo <= pfn < lo + self.pages_per_partition:
            raise PartitionOverflow(
                f"domain {domain} touched pfn {pfn} outside its "
                f"partition [{lo}, {lo + self.pages_per_partition})")
        return pfn - lo

    def _verify_path(self, domain: int, pfn: int, now: float,
                     for_write: bool) -> float:
        """The memo is keyed by PFN alone: the containment check (still
        enforced per access -- it is the overflow failure the Fig. 22
        analysis counts) guarantees ``part == pfn // pages_per_partition``,
        so the counter address and the offset tree path are pure in the
        PFN regardless of how partitions are later reassigned across
        domains."""
        local_page = self._check_containment(domain, pfn)
        rec = self._path_memo.get(pfn)
        if rec is None:
            offset = (self._partition_of[domain] + 1) << 40
            paddrs = [base + offset
                      for base in self.sub_geo.path_addrs(local_page)]
            self.tree_cache.prime_candidates(paddrs)
            rec = self._path_memo[pfn] = (
                self.sub_geo.counter_addr(pfn), paddrs)
        ctr_addr = rec[0]
        stats = self.stats
        tracer = self._hooks[0]
        if self.counter_cache.lookup(ctr_addr, for_write):
            stats.counter_hits += 1
            if tracer is not None:
                tracer.instant("tree", "counter_hit", ts=now, pfn=pfn)
            return self._ctr_hit_lat
        stats.counter_misses += 1
        trace = None
        if tracer is not None:
            trace = {"partition": self._partition_of[domain]}
            tracer.instant("tree", "counter_miss", ts=now, pfn=pfn, **trace)
        return self._walk(domain, ctr_addr, rec[1], now,
                          now + self._read_meta(ctr_addr, now), for_write,
                          trace=trace)
