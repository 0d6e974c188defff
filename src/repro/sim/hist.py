"""Log-bucketed latency histograms with percentile extraction.

HDR-histogram-style bucketing: values below ``2**sub_bits`` get exact
(width-1) buckets; above that, each power-of-two range is split into
``2**(sub_bits-1)`` linear sub-buckets, bounding the relative
quantisation error by ``2**(1-sub_bits)`` (12.5% at the default
``sub_bits=4``) while keeping the index computation to a couple of
shifts.

Histograms publish into the PR 1 :class:`~repro.sim.registry.StatsRegistry`
as flat monotonic counters (``<name>.count``, ``<name>.sum``,
``<name>.b<idx>``), so warmup reset and snapshot/delta windowing apply
to full distributions exactly as they do to scalar stats, and
:meth:`HistogramSet.from_values` can rebuild percentiles from any
(possibly delta'd) snapshot — which is how the CLI ``--profile`` table
is produced.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

#: Default sub-bucket bits (8 live sub-buckets per octave, <=12.5% error).
SUB_BITS = 4


class LatencyHistogram:
    """One log-bucketed distribution of non-negative integer samples."""

    __slots__ = ("sub_bits", "counts", "count", "total", "min", "max",
                 "_linear_limit")

    def __init__(self, sub_bits: int = SUB_BITS) -> None:
        if sub_bits < 1:
            raise ValueError("sub_bits must be >= 1")
        self.sub_bits = sub_bits
        self._linear_limit = 1 << sub_bits
        self.counts: Dict[int, int] = {}
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    # -- bucketing ----------------------------------------------------------

    def _index(self, v: int) -> int:
        if v < (1 << self.sub_bits):
            return v
        k = v.bit_length() - self.sub_bits
        return (k << self.sub_bits) + (v >> k)

    def bucket_bounds(self, idx: int) -> Tuple[int, int]:
        """Half-open value range ``[lo, hi)`` covered by bucket ``idx``."""
        k = idx >> self.sub_bits
        if k == 0:
            return idx, idx + 1
        m = idx & ((1 << self.sub_bits) - 1)
        lo = m << k
        return lo, lo + (1 << k)

    # -- recording ----------------------------------------------------------

    def record(self, value) -> None:
        if value < 0:
            value = 0
        v = int(value)
        # _index() inlined: record is called several times per simulated
        # access, and the call + attribute traffic dominated the math.
        if v < self._linear_limit:
            idx = v
        else:
            k = v.bit_length() - self.sub_bits
            idx = (k << self.sub_bits) + (v >> k)
        counts = self.counts
        counts[idx] = counts.get(idx, 0) + 1
        self.count += 1
        # Bucketing quantises to int, but the sum keeps the exact sample
        # value: fractional latencies (DRAM queueing delay) must yield a
        # mean that agrees with float accumulators elsewhere (e.g.
        # ``DRAMStats.total_read_latency``) instead of drifting low by
        # up to one cycle.
        self.total += value
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v

    def record_many(self, value, n: int) -> None:
        """Record ``n`` identical samples.

        Bit-identical to calling :meth:`record` ``n`` times as long as
        ``value`` is integer-valued (the simulator core only
        uses this for constant hit latencies, which are): ``n`` repeated
        float additions of an integer-valued double and one addition of
        ``value * n`` are both exact.
        """
        if n <= 0:
            return
        if value < 0:
            value = 0
        v = int(value)
        if v < self._linear_limit:
            idx = v
        else:
            k = v.bit_length() - self.sub_bits
            idx = (k << self.sub_bits) + (v >> k)
        counts = self.counts
        counts[idx] = counts.get(idx, 0) + n
        self.count += n
        self.total += value * n
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v

    def reset(self) -> None:
        self.counts.clear()
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None

    def merge(self, other: "LatencyHistogram") -> None:
        if other.sub_bits != self.sub_bits:
            raise ValueError("cannot merge histograms with different sub_bits")
        for idx, n in other.counts.items():
            self.counts[idx] = self.counts.get(idx, 0) + n
        self.count += other.count
        self.total += other.total
        for bound in (other.min, other.max):
            if bound is None:
                continue
            if self.min is None or bound < self.min:
                self.min = bound
            if self.max is None or bound > self.max:
                self.max = bound

    # -- queries ------------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` (0..100).

        Returns the *upper* representable value of the bucket holding the
        rank-``ceil(p/100 * count)`` sample — a conservative estimate
        that is exact in the linear region (values below
        ``2**sub_bits``) and at most one bucket width high elsewhere.
        """
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if self.count == 0:
            return 0.0
        rank = max(1, -(-int(p * self.count) // 100))  # ceil(p/100*count)
        cum = 0
        for idx in sorted(self.counts):
            cum += self.counts[idx]
            if cum >= rank:
                lo, hi = self.bucket_bounds(idx)
                return float(hi - 1)
        return float(self.max if self.max is not None else 0)

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0,
            "max": self.max if self.max is not None else 0,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class HistogramSet:
    """A named family of histograms wired into the StatsRegistry.

    The registry view flattens every histogram to monotonic counters
    only (no min/max fields), so the registry's guarantees hold:
    ``reset_all`` zeroes the window and ``delta(before, after)`` yields
    the distribution of the window alone.
    """

    def __init__(self, sub_bits: int = SUB_BITS) -> None:
        self.sub_bits = sub_bits
        self._hists: Dict[str, LatencyHistogram] = {}

    def get(self, name: str) -> LatencyHistogram:
        h = self._hists.get(name)
        if h is None:
            h = self._hists[name] = LatencyHistogram(self.sub_bits)
        return h

    def items(self) -> Iterator[Tuple[str, LatencyHistogram]]:
        return iter(sorted(self._hists.items()))

    def reset_all(self) -> None:
        for h in self._hists.values():
            h.reset()

    def registry_values(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for name, h in sorted(self._hists.items()):
            out[f"{name}.count"] = h.count
            out[f"{name}.sum"] = h.total
            for idx in sorted(h.counts):
                out[f"{name}.b{idx}"] = h.counts[idx]
        return out

    def register(self, registry, group: str) -> None:
        """Attach to ``registry`` under ``group`` (e.g. ``hist.sim``)."""
        registry.register_custom(group, self.reset_all, self.registry_values)

    @staticmethod
    def from_values(values: Dict[str, float],
                    sub_bits: int = SUB_BITS) -> Dict[str, LatencyHistogram]:
        """Rebuild histograms from a registry snapshot (or delta) group.

        min/max cannot be recovered exactly; they are approximated by
        the bounds of the extreme occupied buckets.
        """
        hists: Dict[str, LatencyHistogram] = {}
        for key, val in values.items():
            name, _, field = key.rpartition(".")
            if not name:
                continue
            h = hists.get(name)
            if h is None:
                h = hists[name] = LatencyHistogram(sub_bits)
            if field == "count":
                h.count = int(val)
            elif field == "sum":
                # Sums may be fractional (exact float accumulation).
                h.total = val
            elif field.startswith("b"):
                try:
                    idx = int(field[1:])
                except ValueError:
                    continue
                if val:
                    h.counts[idx] = int(val)
        for h in hists.values():
            if h.counts:
                h.min = h.bucket_bounds(min(h.counts))[0]
                h.max = h.bucket_bounds(max(h.counts))[1] - 1
        return hists
