"""Cache and engine fast-path contracts.

The cache models offer a known-absent fill (``fill_absent``), a fused
``touch_dirty`` probe and batched MIRAGE candidate hashing
(``prime_candidates``); the engines look their metadata caches and
``_verify_path`` up per call.  The end-to-end results are pinned by the
golden digests (``tests/test_golden.py``); this suite checks the
primitives directly, including organisations the golden cells never
reach (way-locked and fully locked sets):

* a seeded property test runs a random probe/fill stream through two
  identically-configured caches -- one filling with ``fill``, one with
  ``fill_absent`` -- for plain, locked-way and MIRAGE organisations,
  comparing victims, full state and the traced ``place``/``evict``
  events;
* ``prime_candidates`` must memoize exactly the values the lazy
  per-address hash would have produced (numpy uint64 wraparound
  included);
* ``touch_dirty`` must equal the ``contains`` + ``lookup(is_write=True)``
  pair it fused (the SGX counter-tree dirty-walk regression);
* every engine's memoized verify path must equal a path resolved afresh
  on every access, on the golden M-2 cell;
* an instance-level ``_verify_path`` and a metadata cache swapped in
  after construction both take effect.
"""

import random

import pytest

from repro.experiments.parallel import resolve_engine
from repro.mem.cache import Cache
from repro.mem.mirage import MirageCache
from repro.sim.config import CacheConfig, tiny_config
from repro.sim.trace import EventTracer
from tests import test_golden as golden

#: Small geometry so a few hundred addresses generate real conflict
#: pressure (evictions, write-backs, power-of-two-choices imbalance).
_CFG = CacheConfig(4096, 4, hit_latency=10)       # 16 sets x 4 ways
_N_ADDRS = 200
_N_OPS = 4000


def _snapshot(cache):
    """Full observable state: per-set (addr, [dirty, locked]) in LRU
    order, plus every counter the registry would see."""
    state = [list(s.items()) for s in cache._sets]
    counters = (cache.stats.hits, cache.stats.misses,
                cache.evictions, cache.writebacks, cache._locked)
    if isinstance(cache, MirageCache):
        counters += (cache.skew0_fills, cache.skew1_fills)
    return state, counters


def _drive_pair(generic, fast, seed, n_ops=_N_OPS):
    """Random probe/fill stream; ``generic`` fills a miss with ``fill``,
    ``fast`` with ``fill_absent``.  Divergence is asserted per-operation
    so a failure names the first differing op."""
    tracers = EventTracer(limit=None), EventTracer(limit=None)
    generic.tracer, fast.tracer = tracers
    rng = random.Random(seed)
    for op in range(n_ops):
        addr = rng.randrange(_N_ADDRS)
        is_write = rng.random() < 0.4
        hit_g = generic.lookup(addr, is_write=is_write)
        hit_f = fast.lookup(addr, is_write=is_write)
        assert hit_g == hit_f, f"probe diverged at op {op} addr {addr}"
        if not hit_g:
            # The fill_absent contract: only for a just-observed miss.
            ev = generic.fill(addr, dirty=is_write)
            wb_g = ev.addr if ev is not None and ev.dirty else None
            wb_f = fast.fill_absent(addr, dirty=is_write)
            assert wb_g == wb_f, \
                f"fill victim diverged at op {op} addr {addr}"
    assert _snapshot(generic) == _snapshot(fast)
    assert tracers[0].events() == tracers[1].events()
    assert tracers[0].events(), "the stream should evict"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_plain_cache_fast_probe_fill_equivalent(seed):
    _drive_pair(Cache(_CFG, "c"), Cache(_CFG, "c"), seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_locked_way_cache_fast_probe_fill_equivalent(seed):
    """Way-locking (TreeLing root pinning) switches the victim pick from
    the LRU head to a locked-aware scan; one set is even fully locked so
    fills into it are dropped.  ``fill_absent`` must mirror all of it."""
    generic, fast = Cache(_CFG, "c"), Cache(_CFG, "c")
    n_sets = generic.n_sets
    for cache in (generic, fast):
        for way in range(cache.assoc):          # set 0: fully locked
            cache.lock(0 + way * n_sets)
        cache.lock(1)                            # set 1: one locked way
        cache.lock(2 + n_sets)                   # set 2: one locked way
    _drive_pair(generic, fast, seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mirage_cache_fast_probe_fill_equivalent(seed):
    """Same-seeded MIRAGE caches share hash keys, so the skewed probe,
    power-of-two-choices placement and skew counters must all match."""
    _drive_pair(MirageCache(_CFG, "m", seed=7),
                MirageCache(_CFG, "m", seed=7), seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mirage_locked_fast_probe_fill_equivalent(seed):
    generic = MirageCache(_CFG, "m", seed=7)
    fast = MirageCache(_CFG, "m", seed=7)
    for cache in (generic, fast):
        for addr in (0, 3, 17, 101):
            cache.lock(addr)
    _drive_pair(generic, fast, seed)


def test_prime_candidates_matches_lazy_hash():
    """The numpy batch hash must memoize exactly the values the pure
    Python splitmix64 produces -- including 64-bit wraparound."""
    primed = MirageCache(_CFG, "p", seed=13)
    lazy = MirageCache(_CFG, "l", seed=13)
    addrs = list(range(0, 3000, 37)) + [2**40 + 123, 2**63, 2**64 - 5]
    primed.prime_candidates(addrs)
    for addr in addrs:
        assert primed._cand[addr] == lazy._candidates(addr), hex(addr)
    # Re-priming with overlap only hashes the missing tail.
    primed.prime_candidates(addrs + [999_999])
    assert primed._cand[999_999] == lazy._candidates(999_999)
    # Plain caches expose the hook as a no-op.
    Cache(_CFG, "c").prime_candidates(addrs)


@pytest.mark.parametrize("make", [
    lambda name: Cache(_CFG, name),
    lambda name: MirageCache(_CFG, name, seed=7),
], ids=["plain", "mirage"])
def test_touch_dirty_equals_contains_then_dirty_lookup(make):
    """``touch_dirty`` fuses the SGX dirty walk's old ``contains`` +
    ``lookup(is_write=True)`` pair into one probe; hit/absent outcomes,
    LRU refresh, dirty bits and stats must be indistinguishable."""
    fused, paired = make("fused"), make("paired")
    rng = random.Random(42)
    for _ in range(600):
        addr = rng.randrange(_N_ADDRS)
        if rng.random() < 0.5:
            for c in (fused, paired):
                c.fill(addr, dirty=False)
        else:
            hit_f = fused.touch_dirty(addr)
            present = paired.contains(addr)
            if present:
                paired.lookup(addr, is_write=True)
            assert hit_f == present, f"touch_dirty diverged at {addr}"
    assert _snapshot(fused) == _snapshot(paired)


def test_sgx_dirty_walk_probes_each_node_once():
    """Regression for the counter-tree write walk: the old code probed
    the tree cache twice per path node (``contains`` then
    ``lookup(is_write=True)``); the fused walk issues exactly one
    ``touch_dirty`` per node and stops at the first cached level."""
    eng = resolve_engine("sgx-counter-tree")(tiny_config(n_cores=2),
                                             seed=11)
    tc = eng.tree_cache
    calls = {"touch": 0, "contains": 0}
    orig_touch = tc.touch_dirty

    def counting_touch(addr):
        calls["touch"] += 1
        return orig_touch(addr)

    def counting_contains(addr):
        calls["contains"] += 1
        return Cache.contains(tc, addr)

    tc.touch_dirty = counting_touch
    tc.contains = counting_contains
    path_len = len(eng.geo.path_addrs(5))
    assert path_len > 0
    # Cold write: the verification walk fills the whole path (dirty), so
    # the dirty walk's first probe hits and the walk stops -- one fused
    # probe, zero contains.
    eng.data_access(0, 5, 0, True, 0.0)
    assert calls["contains"] == 0, "dirty walk still double-probes"
    assert 1 <= calls["touch"] <= path_len
    # Warm write: path fully cached, the walk terminates on probe #1.
    calls["touch"] = 0
    eng.data_access(0, 5, 1, True, 100.0)
    assert calls["touch"] == 1
    assert calls["contains"] == 0


class _RecomputingMemo(dict):
    """A verify-path memo that never hits: every access resolves its
    path afresh (entries are still stored, for readers that index the
    memo right after ``_verify_path`` built the entry)."""

    def get(self, key, default=None):
        return default


def _run_engine(scheme, memoized):
    sim, workload = golden.build(scheme, "M-2",
                                 golden.default_policy(scheme))
    if not memoized:
        sim.engine._path_memo = _RecomputingMemo()
    result = sim.run(workload, warmup=golden.WARMUP)
    return (result.to_dict(), sim.registry.snapshot(),
            golden.hist_state(sim))


@pytest.mark.parametrize("scheme", golden.ENGINES)
def test_engine_fast_path_bit_identical(scheme):
    """Every engine: the memoized verify path and a path resolved afresh
    on every access yield equal results, registry snapshots and
    histogram buckets -- each memo entry is a pure function of its key,
    as the memo's invalidation-free design assumes."""
    m_res, m_reg, m_hist = _run_engine(scheme, memoized=True)
    r_res, r_reg, r_hist = _run_engine(scheme, memoized=False)
    assert m_reg == r_reg
    assert m_hist == r_hist, "per-class latency histogram buckets differ"
    assert m_res == r_res


def test_instance_verify_patch_takes_effect():
    """The differential oracle patches ``_verify_path`` on instances
    (fault injection); both entry points must call the patch."""
    eng = resolve_engine("baseline")(tiny_config(n_cores=2), seed=11)
    calls = []
    orig = eng._verify_path

    def counting(*args):
        calls.append(args)
        return orig(*args)

    eng._verify_path = counting
    eng.data_access(0, 3, 0, False, 0.0)
    eng.handle_writeback(0, 3, 1, 10.0)
    assert [c[3] for c in calls] == [False, True]


def test_swapped_counter_cache_takes_effect():
    """A metadata cache replaced after construction (the leakage
    checker's ``aliased-counters`` mutation) is the one the engine
    probes and fills."""
    eng = resolve_engine("ivleague-basic")(tiny_config(n_cores=2),
                                           seed=11)
    eng.on_domain_start(1)
    eng.on_page_alloc(1, 7, 0.0)
    fresh = Cache(eng.counter_cache.config, "ctr$")
    eng.counter_cache = fresh
    eng.data_access(1, 7, 0, False, 0.0)
    assert fresh.stats.misses == 1 and len(fresh) == 1
    eng.data_access(1, 7, 1, False, 1000.0)
    assert fresh.stats.hits == 1
