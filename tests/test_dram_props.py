"""Property tests for the DRAM address mapping and the
latency-accounting fixes (float read-latency accumulation, explicit
row-hit classification)."""

import random

import pytest

from repro.mem import spaces
from repro.mem.dram import DRAM
from repro.mem.memctrl import MemoryController
from repro.sim.config import DRAMConfig

ALL_SPACES = (spaces.DATA, spaces.COUNTER, spaces.TREE, spaces.MAC,
              spaces.NFL, spaces.PTABLE, spaces.LMM)
METADATA_SPACES = tuple(s for s in ALL_SPACES if s != spaces.DATA)


def _random_addrs(n, seed=0, max_block=1 << 24):
    rng = random.Random(seed)
    return [spaces.tag(rng.choice(ALL_SPACES), rng.randrange(max_block))
            for _ in range(n)]


class TestBankAndRowProperties:
    def test_mapping_is_stable(self):
        dram = DRAM(DRAMConfig())
        for addr in _random_addrs(200, seed=1):
            first = dram.bank_and_row(addr)
            assert dram.bank_and_row(addr) == first

    def test_mapping_in_range(self):
        cfg = DRAMConfig()
        dram = DRAM(cfg)
        for addr in _random_addrs(500, seed=2):
            bank, row = dram.bank_and_row(addr)
            assert 0 <= bank < cfg.n_banks
            assert row >= 0

    @pytest.mark.parametrize("space", METADATA_SPACES)
    def test_metadata_spaces_spread_over_banks(self, space):
        """Sequential metadata blocks (densely indexed by PFN) must use
        every bank, not collapse onto one."""
        cfg = DRAMConfig()
        dram = DRAM(cfg)
        banks = {dram.bank_and_row(spaces.tag(space, b))[0]
                 for b in range(cfg.n_banks * dram._blocks_per_row * 4)}
        assert banks == set(range(cfg.n_banks))

    def test_no_bank_zero_pileup(self):
        """No bank (bank 0 in particular) may absorb a disproportionate
        share of a mixed data+metadata stream."""
        cfg = DRAMConfig()
        dram = DRAM(cfg)
        addrs = _random_addrs(4000, seed=3)
        counts = [0] * cfg.n_banks
        for addr in addrs:
            counts[dram.bank_and_row(addr)[0]] += 1
        fair = len(addrs) / cfg.n_banks
        assert counts[0] < 2 * fair
        assert max(counts) < 2 * fair

    def test_same_space_blocks_in_one_row_split_only_by_channel(self):
        """Blocks within one DRAM row of one space land on exactly one
        (bank, row) per channel: block-granularity channel interleave,
        row-granularity bank interleave -- that locality is what makes
        row-buffer hits possible at all."""
        cfg = DRAMConfig()
        dram = DRAM(cfg)
        per_row = dram._blocks_per_row
        base = 7 * per_row
        mapped = {dram.bank_and_row(spaces.tag(spaces.DATA, base + i))
                  for i in range(per_row)}
        assert len(mapped) == cfg.channels


class TestLatencyAccounting:
    def test_queued_latency_accumulates_as_float(self):
        """Back-to-back reads to one bank queue behind each other; the
        fractional queueing delay must survive into the accumulator
        (the old ``+= int(total)`` truncated every sample)."""
        cfg = DRAMConfig()
        dram = DRAM(cfg)
        addr = spaces.tag(spaces.DATA, 5)
        dram.read(addr, 0.0)
        # second read starts at busy_until but is timed from now=0.25
        lat = dram.read(addr, 0.25)
        assert lat != int(lat)   # genuinely fractional
        assert dram.stats.total_read_latency == pytest.approx(
            cfg.row_miss_latency + lat)

    def test_avg_read_latency_matches_histogram_mean(self):
        """satellite: ``DRAMStats.avg_read_latency`` and the ``hist.mc``
        read histograms are fed the same samples; their means must agree
        to float precision, not drift by up to a cycle."""
        mc = MemoryController(DRAMConfig())
        rng = random.Random(4)
        now = 0.0
        for _ in range(500):
            space = rng.choice(ALL_SPACES)
            addr = spaces.tag(space, rng.randrange(512))
            mc.read(addr, now)
            now += rng.random() * 3.0   # fractional gaps -> queueing
        h_data = mc.hists.get("read.data")
        h_meta = mc.hists.get("read.metadata")
        count = h_data.count + h_meta.count
        assert count == mc.dram.stats.reads
        hist_mean = (h_data.total + h_meta.total) / count
        assert mc.dram.stats.avg_read_latency == pytest.approx(
            hist_mean, abs=1e-9)

    def test_histogram_sum_keeps_fractional_samples(self):
        from repro.sim.hist import LatencyHistogram
        h = LatencyHistogram()
        h.record(10.75)
        h.record(3.5)
        assert h.total == pytest.approx(14.25)
        assert h.mean == pytest.approx(7.125)


class TestRowHitClassification:
    def test_queued_row_hit_still_counts_as_hit(self):
        """Regression: a row hit delayed behind a busy bank has latency
        above ``row_hit_latency``; inferring the class from the latency
        value mislabelled it a miss.  The explicit flag must not."""
        cfg = DRAMConfig()
        dram = DRAM(cfg)
        addr = spaces.tag(spaces.DATA, 9)
        dram.read(addr, 0.0)                 # miss, opens the row
        lat = dram.read(addr, 0.0)           # hit, but queued
        assert lat > cfg.row_hit_latency
        assert dram.stats.row_hits == 1
        assert dram.stats.row_misses == 1

    def test_degenerate_timing_config_keeps_classes_distinct(self):
        """With t_rp = t_rcd = 0 (latency sweeps) hit and miss latencies
        coincide, so latency equality carries no class information."""
        cfg = DRAMConfig(t_rp=0, t_rcd=0)
        assert cfg.row_hit_latency == cfg.row_miss_latency
        dram = DRAM(cfg)
        addr = spaces.tag(spaces.DATA, 3)
        dram.read(addr, 0.0)
        dram.read(addr, 1000.0)              # idle bank, genuine hit
        assert (dram.stats.row_hits, dram.stats.row_misses) == (1, 1)

    def test_write_path_classifies_with_same_flag(self):
        cfg = DRAMConfig()
        dram = DRAM(cfg)
        addr = spaces.tag(spaces.COUNTER, 11)
        dram.write(addr, 0.0)                # miss opens the row
        dram.write(addr, 0.0)                # queued, still a row hit
        assert dram.stats.row_hits == 1
        assert dram.stats.row_misses == 1

    def test_row_accounting_conservation(self):
        dram = DRAM(DRAMConfig())
        rng = random.Random(6)
        for i in range(300):
            addr = spaces.tag(rng.choice(ALL_SPACES), rng.randrange(256))
            if i % 3:
                dram.read(addr, float(i))
            else:
                dram.write(addr, float(i))
        s = dram.stats
        assert s.row_hits + s.row_misses == s.reads + s.writes


class TestControllerInlinesDevice:
    def test_request_closures_match_dram_reference(self):
        """The controller's request closures (the engine's and its own)
        inline the open-row timing of ``DRAM.read``/``DRAM.write``; one
        mixed stream through both must give identical latencies,
        counters and bank state."""
        cfg = DRAMConfig()
        mc = MemoryController(cfg)
        ref = DRAM(cfg)
        rng = random.Random(8)
        now = 0.0
        for _ in range(2000):
            addr = spaces.tag(rng.choice(ALL_SPACES), rng.randrange(512))
            if rng.random() < 0.3:
                mc.write(addr, now)
                ref.write(addr, now)
            else:
                assert mc.read(addr, now) == ref.read(addr, now)
            now += rng.random() * 4.0
        assert mc.dram.stats == ref.stats
        assert mc.dram._open_row == ref._open_row
        assert mc.dram._busy_until == ref._busy_until
