"""Memory controller front-end.

Thin layer between the on-chip world and :class:`repro.mem.dram.DRAM`:
it separates data traffic from metadata traffic for accounting (Fig. 19
normalises *total* memory accesses) and builds the request closures the
secure engines and the page-table walks use.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.dram import DRAM
from repro.mem.spaces import DATA, SPACE_SHIFT, space_of
from repro.sim.config import DRAMConfig
from repro.sim.hist import HistogramSet
from repro.sim.profiler import NULL_PROFILER
from repro.sim.stats import EngineStats
from repro.sim.trace import NULL_TRACER, hook_pair

#: Tagged addresses at or above this value live in a metadata space
#: (``spaces.DATA`` is space 0, so the comparison replaces the
#: ``is_metadata`` call on the controller's per-request hot path).
_METADATA_BASE = (DATA + 1) << SPACE_SHIFT


@dataclass
class TrafficStats:
    data_reads: int = 0
    data_writes: int = 0
    metadata_reads: int = 0
    metadata_writes: int = 0

    @property
    def total(self) -> int:
        return (self.data_reads + self.data_writes
                + self.metadata_reads + self.metadata_writes)


class MemoryController:
    """Routes block requests to DRAM and keeps traffic accounting.

    Every request takes one of the four closures built by
    :meth:`_request_ops`: the engine's (from :meth:`bind_engine_ops`)
    and the controller's own (:meth:`read`/:meth:`write`, which serve
    the page-table walks).  :meth:`DRAM.read`/:meth:`DRAM.write` remain
    the device-level reference the closures inline.
    """

    def __init__(self, config: DRAMConfig) -> None:
        self.dram = DRAM(config)
        self.tracer = NULL_TRACER
        self.profiler = NULL_PROFILER
        #: ``hook_pair(tracer, profiler)``, read once per request.
        self._hooks = (None, None)
        self.traffic = TrafficStats()
        # Read-latency distributions, split the same way the traffic
        # counters are: metadata reads sit on the verification critical
        # path, so their tail is the interesting one.
        self.hists = HistogramSet()
        self._h_data = self.hists.get("read.data")
        self._h_meta = self.hists.get("read.metadata")
        # Requests the engine does not see (page-table walks) count into
        # this unregistered sink instead of the engine's counters.
        (self._read_data, self._read_meta, self._write_data,
         self._write_meta) = self._request_ops(EngineStats())

    def set_tracer(self, tracer) -> None:
        self.tracer = tracer
        self._hooks = hook_pair(tracer, self.profiler)

    def set_profiler(self, profiler) -> None:
        self.profiler = profiler
        self._hooks = hook_pair(self.tracer, profiler)

    def register_stats(self, registry) -> None:
        """Register the traffic split and the DRAM device counters, plus
        the conservation law tying them together: every request the
        controller classified must have reached exactly one DRAM bank."""
        registry.register("mc.traffic", self.traffic)
        self.hists.register(registry, "hist.mc")
        self.dram.register_stats(registry)
        registry.add_equality(
            "dram-read-conservation",
            "dram.reads", lambda: self.dram.stats.reads,
            "traffic data+metadata reads",
            lambda: self.traffic.data_reads + self.traffic.metadata_reads)
        registry.add_equality(
            "dram-write-conservation",
            "dram.writes", lambda: self.dram.stats.writes,
            "traffic data+metadata writes",
            lambda: self.traffic.data_writes + self.traffic.metadata_writes)
        registry.add_equality(
            "dram-row-accounting",
            "row hits+misses",
            lambda: self.dram.stats.row_hits + self.dram.stats.row_misses,
            "dram reads+writes",
            lambda: self.dram.stats.reads + self.dram.stats.writes)

    def read(self, addr: int, now: float) -> float:
        """A read the engine does not attribute (page-table walks)."""
        if addr >= _METADATA_BASE:
            return self._read_meta(addr, now)
        return self._read_data(addr, now)

    def write(self, addr: int, now: float) -> None:
        """A posted write the engine does not attribute."""
        if addr >= _METADATA_BASE:
            self._write_meta(addr, now)
        else:
            self._write_data(addr, now)

    # -- engine DRAM path -----------------------------------------------------

    def bind_engine_ops(self, estats):
        """The engine's (read_data, read_meta, write_data, write_meta),
        counting into ``estats`` (the engine's :class:`EngineStats`)."""
        return self._request_ops(estats)

    def _request_ops(self, estats):
        """(read_data, read_meta, write_data, write_meta) closures.

        Each collapses the controller layer, the DRAM open-row timing
        model and the ``estats`` dram_* attribution counters into one
        call.  The data/metadata classification is fixed per closure, so
        the ``_METADATA_BASE`` compare disappears from the per-request
        path.  The arithmetic is the same IEEE sequence as
        :meth:`DRAM.read`/:meth:`DRAM.write`.  Each closure emits the
        ``dram`` trace event and the ``dram`` profiler phase; the hooks
        are looked up per call, so ``set_tracer``/``set_profiler`` after
        construction take effect.
        """
        mc = self
        dram = self.dram
        memo_get = dram._br_memo.get
        bank_and_row = dram.bank_and_row
        open_row = dram._open_row
        busy_until = dram._busy_until
        dstats = dram.stats
        traffic = self.traffic
        hit_lat = dram._hit_lat
        miss_lat = dram._miss_lat
        t_burst = dram._t_burst
        miss_occ = dram._miss_occupancy

        def make_read(meta: bool):
            rec = (self._h_meta if meta else self._h_data).record

            def read(addr: int, now: float) -> float:
                tracer, prof = mc._hooks
                if prof is not None:
                    prof.push("dram")
                if meta:
                    traffic.metadata_reads += 1
                    estats.dram_metadata_reads += 1
                else:
                    traffic.data_reads += 1
                    estats.dram_data_reads += 1
                br = memo_get(addr)
                bank, row = br if br is not None else bank_and_row(addr)
                busy = busy_until[bank]
                start = now if now >= busy else busy
                hit = open_row[bank] == row
                if hit:
                    latency = hit_lat
                    dstats.row_hits += 1
                    busy_until[bank] = start + t_burst
                else:
                    latency = miss_lat
                    dstats.row_misses += 1
                    open_row[bank] = row
                    busy_until[bank] = start + miss_occ
                total = start + latency - now
                dstats.reads += 1
                dstats.total_read_latency += total
                rec(total)
                if tracer is not None:
                    tracer.complete(
                        "dram", "read", ts=now, dur=total, bank=bank,
                        row=row, row_hit=hit, space=space_of(addr))
                if prof is not None:
                    prof.pop()
                return total
            return read

        def make_write(meta: bool):
            def write(addr: int, now: float) -> None:
                tracer, prof = mc._hooks
                if prof is not None:
                    prof.push("dram")
                if meta:
                    traffic.metadata_writes += 1
                    estats.dram_metadata_writes += 1
                else:
                    traffic.data_writes += 1
                    estats.dram_data_writes += 1
                br = memo_get(addr)
                bank, row = br if br is not None else bank_and_row(addr)
                busy = busy_until[bank]
                start = now if now >= busy else busy
                hit = open_row[bank] == row
                if hit:
                    dstats.row_hits += 1
                    busy_until[bank] = start + t_burst
                else:
                    dstats.row_misses += 1
                    open_row[bank] = row
                    busy_until[bank] = start + miss_occ
                dstats.writes += 1
                if tracer is not None:
                    tracer.instant(
                        "dram", "write", ts=now, bank=bank, row=row,
                        row_hit=hit, space=space_of(addr))
                if prof is not None:
                    prof.pop()
            return write

        return make_read(False), make_read(True), make_write(False), \
            make_write(True)
