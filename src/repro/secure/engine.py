"""Secure-memory engine protocol and the Baseline (global BMT) engine.

The *engine* is everything behind the LLC: DRAM plus the secure-memory
machinery (counters, MACs, integrity tree, metadata caches).  The
simulator calls it on LLC misses, dirty write-backs and page lifecycle
events.  All five evaluated schemes (Baseline, static partitioning,
IvLeague-Basic/-Invert/-Pro) implement this interface, which is what
makes every experiment scheme-agnostic.

Timing model: the data fetch and the metadata fetch proceed in parallel;
within the metadata path, counter fetch -> leaf-to-trusted-node traversal
-> decryption is serial (each step needs the previous).  The access
latency returned to the core is the max of the two paths.  Dirty
write-backs are posted (they occupy DRAM banks but do not stall).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.mem import spaces
from repro.mem.memctrl import MemoryController
from repro.mem.mirage import make_cache
from repro.secure.bmt import TreeGeometry
from repro.sim.config import BLOCKS_PER_PAGE, MachineConfig
from repro.sim.hist import HistogramSet
from repro.sim.profiler import NULL_PROFILER
from repro.sim.stats import EngineStats
from repro.sim.trace import NULL_TRACER, hook_pair

#: Writes to one page between modelled minor-counter overflows
#: (7-bit minors overflow after 128 writes to one block; page-level we
#: approximate with the expected fill across blocks).
OVERFLOW_WRITES_PER_PAGE = 1024

#: Tagged addresses at or above this value live in a metadata space —
#: the hot-path form of :func:`repro.mem.spaces.is_metadata`.
_METADATA_BASE = (spaces.DATA + 1) << spaces.SPACE_SHIFT


class SecureMemoryEngine(ABC):
    """Base class: owns DRAM, metadata caches and shared accounting."""

    name = "abstract"

    def __init__(self, config: MachineConfig, seed: int = 11) -> None:
        self.tracer = NULL_TRACER
        self.profiler = NULL_PROFILER
        #: ``hook_pair(tracer, profiler)``: the per-call hook guards
        #: read this one instance attribute (see ``set_tracer``).
        self._hooks = (None, None)
        self.config = config
        self.mc = MemoryController(config.dram)
        self.stats = EngineStats()
        # Latency/path distributions for the profiling layer: total
        # engine access latency, the serial metadata (verify) component,
        # and tree nodes visited per verification.
        self.hists = HistogramSet()
        self._h_access = self.hists.get("access_latency")
        self._h_verify = self.hists.get("verify_latency")
        self._h_path = self.hists.get("path_length")
        sec = config.secure
        # Hot-path constants hoisted out of the per-access attribute
        # chains (values identical to the config fields they mirror).
        self._mac_hit_lat = float(sec.mac_cache.hit_latency)
        self._ctr_hit_lat = float(sec.counter_cache.hit_latency)
        self._aes_lat = sec.aes_latency
        self._hash_lat = sec.hash_latency
        self._mac_base = spaces.MAC << spaces.SPACE_SHIFT
        self._ctr_base = spaces.COUNTER << spaces.SPACE_SHIFT
        self.counter_cache = make_cache(sec.counter_cache, "ctr$",
                                        seed=seed * 3 + 1)
        self.mac_cache = make_cache(sec.mac_cache, "mac$", seed=seed * 3 + 2)
        self.tree_cache = self._build_tree_cache(seed)
        # Per-domain (verifications, nodes_visited) for Fig. 16.
        self.domain_path: dict[int, list[int]] = {}
        self._page_writes: dict[int, int] = {}
        #: Writes to one page between modelled minor-counter overflows;
        #: instance-level so tests (and the differential oracle's fault
        #: campaigns) can force or suppress overflows per engine.
        self.overflow_writes_per_page = OVERFLOW_WRITES_PER_PAGE
        #: Resolved verify-path memo (scheme-specific key; see the
        #: ``_verify_path`` implementations).  Every entry is a pure
        #: function of its key, so no invalidation is ever needed.
        self._path_memo: dict = {}
        # The only engine DRAM path (see MemoryController.bind_engine_ops).
        (self._read_data, self._read_meta, self._write_data,
         self._write_meta) = self.mc.bind_engine_ops(self.stats)

    # -- hooks for subclasses ------------------------------------------------------

    def _build_tree_cache(self, seed: int):
        return make_cache(self.config.secure.tree_cache, "tree$",
                          seed=seed * 3)

    @abstractmethod
    def _verify_path(self, domain: int, pfn: int, now: float,
                     for_write: bool) -> float:
        """Fetch + verify the counter block of ``pfn``; returns latency."""

    # -- statistics registration ---------------------------------------------------

    def register_stats(self, registry) -> None:
        """Register every engine-side counter plus the conservation laws
        that tie the engine's own attribution to the memory controller's
        ground truth.  Subclasses extend this with their structures."""
        registry.register("engine", self.stats)
        self.hists.register(registry, "hist.engine")
        self.mc.register_stats(registry)
        for cache in (self.counter_cache, self.mac_cache, self.tree_cache):
            cache.register_stats(registry)
        registry.register_custom(
            "engine.domain_path",
            reset=self._reset_domain_path,
            values=lambda: {
                f"domain{d}.{k}": rec[i]
                for d, rec in sorted(self.domain_path.items())
                for i, k in enumerate(("verifications", "nodes_visited"))})
        s, t = self.stats, self.mc.traffic
        registry.add_equality(
            "engine-data-read-attribution",
            "engine.dram_data_reads", lambda: s.dram_data_reads,
            "mc.traffic.data_reads", lambda: t.data_reads)
        registry.add_equality(
            "engine-data-write-attribution",
            "engine.dram_data_writes", lambda: s.dram_data_writes,
            "mc.traffic.data_writes", lambda: t.data_writes)
        registry.add_equality(
            "engine-metadata-write-attribution",
            "engine.dram_metadata_writes", lambda: s.dram_metadata_writes,
            "mc.traffic.metadata_writes", lambda: t.metadata_writes)
        # Page-table walks read metadata through the controller without
        # the engine seeing them; the simulator tightens this bound to
        # an equality once it registers its walk counter.
        registry.add_bound(
            "engine-metadata-read-attribution",
            "engine.dram_metadata_reads", lambda: s.dram_metadata_reads,
            "mc.traffic.metadata_reads", lambda: t.metadata_reads)
        registry.add_equality(
            "tree-path-accounting",
            "tree_nodes_visited", lambda: s.tree_nodes_visited,
            "verifications + tree_node_dram_reads",
            lambda: s.verifications + s.tree_node_dram_reads)
        registry.add_equality(
            "mac-accounting",
            "mac hits+misses", lambda: s.mac_hits + s.mac_misses,
            "data accesses + absorbed writebacks",
            lambda: s.data_reads + s.data_writes + s.writebacks_absorbed)
        registry.add_equality(
            "domain-path-accounting",
            "sum of per-domain (verifications, nodes)",
            lambda: (sum(r[0] for r in self.domain_path.values()),
                     sum(r[1] for r in self.domain_path.values())),
            "engine (verifications, tree_nodes_visited)",
            lambda: (s.verifications, s.tree_nodes_visited))

    def _reset_domain_path(self) -> None:
        for rec in self.domain_path.values():
            rec[0] = rec[1] = 0

    # -- shared low-level helpers ----------------------------------------------------

    def _mread(self, addr: int, now: float) -> float:
        if addr >= _METADATA_BASE:
            return self._read_meta(addr, now)
        return self._read_data(addr, now)

    def _mwrite(self, addr: int, now: float) -> None:
        if addr >= _METADATA_BASE:
            self._write_meta(addr, now)
        else:
            self._write_data(addr, now)

    def _record_path(self, domain: int, visited: int) -> None:
        self.stats.verifications += 1
        self.stats.tree_nodes_visited += visited
        self._h_path.record(visited)
        rec = self.domain_path.setdefault(domain, [0, 0])
        rec[0] += 1
        rec[1] += visited

    def _walk(self, domain: int, ctr_addr: int, paddrs, now: float,
              clock: float, for_write: bool, level0: int = 0,
              trace: dict | None = None) -> float:
        """The shared tail of every verify path after a counter miss:
        walk ``paddrs`` (leaf first, on-chip root excluded) from
        ``clock`` up to the first cached, hence trusted, node, record
        the path, fill the counter block and return the latency since
        ``now``.  ``trace`` is None while tracing is off, else the extra
        args of each ``tree/node`` event (whose level is ``level0`` plus
        the node's 1-based position on the path)."""
        stats = self.stats
        read_meta = self._read_meta
        write_meta = self._write_meta
        tree_cache = self.tree_cache
        hash_lat = self._hash_lat
        visited = 1  # the trusted terminator (cached node or root)
        for addr in paddrs:
            if tree_cache.lookup(addr, for_write):
                break
            visited += 1
            stats.tree_node_dram_reads += 1
            if trace is not None:
                self.tracer.instant("tree", "node", ts=clock,
                                    level=level0 + visited - 1, addr=addr,
                                    **trace)
            clock += read_meta(addr, clock) + hash_lat
            wb = tree_cache.fill_absent(addr, for_write)
            if wb is not None:
                write_meta(wb, clock)
        self._record_path(domain, visited)
        wb = self.counter_cache.fill_absent(ctr_addr, for_write)
        if wb is not None:
            write_meta(wb, clock)
        return clock - now

    def set_tracer(self, tracer) -> None:
        """Install ``tracer`` on this engine and everything behind it."""
        self.tracer = tracer
        self._hooks = hook_pair(tracer, self.profiler)
        self.mc.set_tracer(tracer)
        for cache in (self.counter_cache, self.mac_cache, self.tree_cache):
            cache.tracer = tracer

    def set_profiler(self, profiler) -> None:
        """Install ``profiler`` on this engine and everything behind it
        (the DRAM controller's "dram" phase, the metadata caches'
        "mirage_hash" phase when they are randomized)."""
        self.profiler = profiler
        self._hooks = hook_pair(self.tracer, profiler)
        self.mc.set_profiler(profiler)
        for cache in (self.counter_cache, self.mac_cache, self.tree_cache):
            cache.profiler = profiler

    @staticmethod
    def data_addr(pfn: int, block_in_page: int) -> int:
        return spaces.tag(spaces.DATA, pfn * BLOCKS_PER_PAGE + block_in_page)

    def mac_addr(self, pfn: int, block_in_page: int) -> int:
        block = pfn * BLOCKS_PER_PAGE + block_in_page
        return spaces.tag(spaces.MAC, block // 8)

    # -- main entry points ------------------------------------------------------------
    #
    # Every LLC-missing access funnels through ``data_access`` /
    # ``handle_writeback``.  Tracer and profiler hooks sit behind local
    # ``if tracer is not None:`` / ``if prof is not None:`` guards on
    # the ``_hooks`` pair, read once per call; metadata caches are
    # looked up on the instance per call, so a cache swapped in after
    # construction (the leakage checker's mutations) takes effect, and
    # so does an instance-level ``_verify_path`` (the oracle's faults).

    def data_access(self, domain: int, pfn: int, block_in_page: int,
                    is_write: bool, now: float) -> float:
        """LLC-missing access: fetch data + metadata; returns latency."""
        tracer, prof = self._hooks
        if tracer is not None:
            # Engine entry point: everything emitted below (counter /
            # tree / MAC / DRAM events) belongs to this domain.
            tracer.cur_domain = domain
            tracer.begin("engine", "data_access", ts=now,
                         domain=domain, pfn=pfn, write=is_write)
        stats = self.stats
        if is_write:
            stats.data_writes += 1
        else:
            stats.data_reads += 1
        block = pfn * BLOCKS_PER_PAGE + block_in_page
        lat_data = self._read_data(block, now)  # DATA tag is 0
        if prof is not None:
            prof.push("mac")
        # One MAC block covers 8 data blocks.
        mac_addr = self._mac_base | (block >> 3)
        if self.mac_cache.lookup(mac_addr, is_write):
            stats.mac_hits += 1
            if tracer is not None:
                tracer.instant("mac", "hit", ts=now, addr=mac_addr)
            lat_mac = self._mac_hit_lat
        else:
            stats.mac_misses += 1
            if tracer is not None:
                tracer.instant("mac", "miss", ts=now, addr=mac_addr)
            lat_mac = self._read_meta(mac_addr, now)
            wb = self.mac_cache.fill_absent(mac_addr, is_write)
            if wb is not None:
                self._write_meta(wb, now)
        if prof is not None:
            prof.pop()
            prof.push("verify")
        lat_meta = self._verify_path(domain, pfn, now, is_write)
        if prof is not None:
            prof.pop()
        # Decryption needs the verified counter; OTP generation overlaps
        # the data fetch, so only the residual AES latency serialises.
        lat_meta += self._aes_lat
        lat = max(lat_data, lat_mac, lat_meta)
        self._h_verify.record(lat_meta)
        self._h_access.record(lat)
        if tracer is not None:
            tracer.end("engine", "data_access", ts=now + lat)
        return lat

    def handle_writeback(self, domain: int, pfn: int, block_in_page: int,
                         now: float) -> None:
        """Dirty LLC eviction: counter bump, MAC refresh, posted write."""
        stats = self.stats
        stats.writebacks_absorbed += 1
        tracer, prof = self._hooks
        if tracer is not None:
            tracer.cur_domain = domain
            tracer.instant("engine", "writeback", ts=now,
                           domain=domain, pfn=pfn)
        if prof is not None:
            prof.push("verify")
        self._verify_path(domain, pfn, now, True)
        if prof is not None:
            prof.pop()
            prof.push("mac")
        block = pfn * BLOCKS_PER_PAGE + block_in_page
        mac_addr = self._mac_base | (block >> 3)
        if self.mac_cache.lookup(mac_addr, True):
            stats.mac_hits += 1
            if tracer is not None:
                tracer.instant("mac", "hit", ts=now, addr=mac_addr)
        else:
            stats.mac_misses += 1
            if tracer is not None:
                tracer.instant("mac", "miss", ts=now, addr=mac_addr)
            self._read_meta(mac_addr, now)
            wb = self.mac_cache.fill_absent(mac_addr, True)
            if wb is not None:
                self._write_meta(wb, now)
        if prof is not None:
            prof.pop()
        self._write_data(block, now)
        writes = self._page_writes.get(pfn, 0) + 1
        if writes >= self.overflow_writes_per_page:
            writes = 0
            self._reencrypt_page(domain, pfn, now)
        self._page_writes[pfn] = writes

    def _counter_addr(self, pfn: int) -> int:
        """Tagged address of the page's counter block (identical across
        schemes: one counter block per page, densely indexed by PFN)."""
        return spaces.tag(spaces.COUNTER, pfn)

    def _reencrypt_page(self, domain: int, pfn: int, now: float) -> None:
        """Minor-counter overflow: stream the page through the crypto
        engine (posted reads+writes; rare, so modelled without stall).

        Beyond the data burst, the overflow changes the page's counter
        block (major bump, minors reset), so the counter block must be
        written back and the integrity-tree path above it updated -- the
        functional model always did this (``CounterStore.increment``
        flags the overflow and the BMT refreshes the path), but the
        timing engines only charged the data traffic, under-reporting
        metadata writes on write-heavy workloads.
        """
        self.stats.page_reencrypts += 1
        tracer, prof = self._hooks
        if tracer is not None:
            tracer.instant("page", "reencrypt", ts=now, domain=domain,
                           pfn=pfn)
        for b in range(0, BLOCKS_PER_PAGE, 8):
            addr = self.data_addr(pfn, b)
            self._mread(addr, now)
            self._mwrite(addr, now)
        # Counter write-back + dirty tree-path update (scheme-specific
        # walk: partition offsets, TreeLing slots, VAULT arities).
        self._mwrite(self._counter_addr(pfn), now)
        if prof is not None:
            prof.push("verify")
        self._verify_path(domain, pfn, now, for_write=True)
        if prof is not None:
            prof.pop()

    # -- page / domain lifecycle (overridden by IvLeague) ---------------------------------

    def on_domain_start(self, domain: int) -> None:
        self.domain_path.setdefault(domain, [0, 0])
        if self.tracer.enabled:
            self.tracer.instant("domain", "start", domain=domain)

    def on_domain_end(self, domain: int) -> None:
        if self.tracer.enabled:
            self.tracer.instant("domain", "end", domain=domain)

    def on_page_alloc(self, domain: int, pfn: int, now: float) -> float:
        self.stats.page_allocs += 1
        return 0.0

    def on_page_free(self, domain: int, pfn: int, now: float) -> float:
        self.stats.page_frees += 1
        self._page_writes.pop(pfn, None)
        return 0.0


class BaselineEngine(SecureMemoryEngine):
    """The paper's Baseline: one global BMT shared by every domain.

    Statically addressed (no LMM/NFL); the global root is the only
    implicitly trusted node.  Side-channel-insecure: tree blocks are
    shared across domains, which the attack harness exploits.
    """

    name = "baseline"

    def __init__(self, config: MachineConfig, seed: int = 11) -> None:
        super().__init__(config, seed)
        self.geo = TreeGeometry(config.counter_blocks)

    def _verify_path(self, domain: int, pfn: int, now: float,
                     for_write: bool) -> float:
        """Counter fetch, then the leaf-to-trusted-node walk.  The
        counter address and the tree-path address list are pure
        functions of the PFN for every static geometry (Baseline,
        VAULT), so they are memoized per PFN; cache residency is
        re-probed on every call, which is why the memo never needs
        invalidating.  Built unconditionally (even on a counter hit) so
        subclass write paths (SGX counter tree) can reuse the entry."""
        rec = self._path_memo.get(pfn)
        if rec is None:
            paddrs = self.geo.path_addrs(pfn)
            self.tree_cache.prime_candidates(paddrs)
            rec = self._path_memo[pfn] = (self.geo.counter_addr(pfn),
                                          paddrs)
        ctr_addr = rec[0]
        stats = self.stats
        tracer, prof = self._hooks
        if prof is not None:
            prof.push("counter_probe")
        ctr_hit = self.counter_cache.lookup(ctr_addr, for_write)
        if prof is not None:
            prof.pop()
        if ctr_hit:
            stats.counter_hits += 1
            if tracer is not None:
                tracer.instant("tree", "counter_hit", ts=now, pfn=pfn)
            return self._ctr_hit_lat
        stats.counter_misses += 1
        if tracer is not None:
            tracer.instant("tree", "counter_miss", ts=now, pfn=pfn)
        # path_addrs excludes the on-chip root, so every address on the
        # walk is a real candidate fetch.
        return self._walk(domain, ctr_addr, rec[1], now,
                          now + self._read_meta(ctr_addr, now), for_write,
                          trace=None if tracer is None else {})
