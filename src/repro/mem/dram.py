"""Open-row DRAM timing model.

Banks keep an open row and a ``busy_until`` time.  A request pays the
controller pipeline latency plus either a row-buffer hit (CAS) or a
row-buffer miss (PRE + ACT + CAS), plus any queueing delay behind earlier
requests to the same bank.  FR-FCFS is approximated by letting a row-hit
request overlap the tail burst of the previous request to the same row.

Writes are posted: they occupy the bank (extending ``busy_until``) but do
not stall the requester, which matches the write-queue draining behaviour
of an FR-FCFS controller at first order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.spaces import block_of, space_of
from repro.sim.config import DRAMConfig


@dataclass
class DRAMStats:
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    #: Accumulated as a float: queueing delay behind a busy bank makes
    #: individual read latencies fractional, and truncating each sample
    #: to int made ``avg_read_latency`` systematically disagree with the
    #: ``hist.mc`` read histograms fed the same (untruncated) values.
    total_read_latency: float = 0.0

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0

    @property
    def avg_read_latency(self) -> float:
        return self.total_read_latency / self.reads if self.reads else 0.0


class DRAM:
    """Channel/rank/bank DRAM with open-row policy.

    :meth:`read`/:meth:`write` are the device-level reference model; the
    simulator's requests take the :class:`~repro.mem.memctrl.MemoryController`
    closures, which inline the same arithmetic on this object's state
    and carry the ``dram`` trace events.
    """

    def __init__(self, config: DRAMConfig) -> None:
        self.config = config
        n = config.n_banks
        self._open_row = [-1] * n
        self._busy_until = [0.0] * n
        self.stats = DRAMStats()
        self._blocks_per_row = config.row_bytes // 64
        # (bank, row) is a pure function of the address; the working set
        # of distinct block addresses is bounded by the workload
        # footprint, so the mapping is memoized off the hot path.
        self._br_memo: dict[int, tuple[int, int]] = {}
        # The timing scalars are fixed for the device's lifetime; the
        # config exposes them as properties, which are too slow to
        # re-evaluate per request.
        self._hit_lat = config.row_hit_latency
        self._miss_lat = config.row_miss_latency
        self._t_burst = config.t_burst
        self._miss_occupancy = config.t_rp + config.t_rcd + config.t_burst
        # Address-mapping constants, hoisted for the same reason: the
        # memo-miss path re-read three config attributes per mapping.
        self._channels = config.channels
        self._banks_per_channel = (config.ranks_per_channel
                                   * config.banks_per_rank)

    def register_stats(self, registry, name: str = "dram") -> None:
        """Register device-level counters (open-row state is not a stat)."""
        registry.register(name, self.stats)

    # -- address mapping -----------------------------------------------------

    def bank_and_row(self, addr: int) -> tuple[int, int]:
        """Map a tagged block address to (bank, row).

        Blocks interleave across channels at block granularity (the common
        fine-grained interleaving), then across banks at row granularity.
        The address-space tag participates in the hash so metadata regions
        spread over all banks rather than piling onto bank 0.
        """
        br = self._br_memo.get(addr)
        if br is None:
            blk = block_of(addr)
            spc = space_of(addr)
            channel = (blk ^ spc) % self._channels
            row_global = blk // self._blocks_per_row
            banks_per_channel = self._banks_per_channel
            bank_in_channel = (row_global ^ (spc * 7)) % banks_per_channel
            bank = channel * banks_per_channel + bank_in_channel
            row = row_global // banks_per_channel
            br = self._br_memo[addr] = (bank, row)
        return br

    # -- accesses ------------------------------------------------------------

    def read(self, addr: int, now: float) -> float:
        """Issue a read at ``now``; returns its latency in cycles."""
        br = self._br_memo.get(addr)
        bank, row = br if br is not None else self.bank_and_row(addr)
        busy = self._busy_until[bank]
        start = now if now >= busy else busy
        # Classify by the open row, never by the latency value: hit and
        # miss latencies coincide in some sweeps (t_rp = t_rcd = 0).
        stats = self.stats
        if self._open_row[bank] == row:
            latency = self._hit_lat
            stats.row_hits += 1
            # The bank stays occupied for the burst only; the next row
            # hit can pipeline behind the column access.
            self._busy_until[bank] = start + self._t_burst
        else:
            latency = self._miss_lat
            stats.row_misses += 1
            self._open_row[bank] = row
            self._busy_until[bank] = start + self._miss_occupancy
        total = start + latency - now
        stats.reads += 1
        stats.total_read_latency += total
        return total

    def write(self, addr: int, now: float) -> None:
        """Posted write: occupies the bank but does not stall the caller."""
        br = self._br_memo.get(addr)
        bank, row = br if br is not None else self.bank_and_row(addr)
        busy = self._busy_until[bank]
        start = now if now >= busy else busy
        stats = self.stats
        if self._open_row[bank] == row:
            stats.row_hits += 1
            self._busy_until[bank] = start + self._t_burst
        else:
            stats.row_misses += 1
            self._open_row[bank] = row
            self._busy_until[bank] = start + self._miss_occupancy
        stats.writes += 1
