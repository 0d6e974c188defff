"""Lockstep equivalence of the simulator's plain and instrumented runs.

The core loop (``Simulator._core_gen``) reads the tracer's and the
profiler's ``enabled`` flags once per drain and branches on the local
copies; the engines and cache models guard their hooks the same way.
Instrumentation must observe, never steer, so every engine in the
registry runs the golden M-2 cell (400 accesses, seed 3, warmup 100)
twice -- plain, and with an ``EventTracer`` and a ``PhaseProfiler``
installed -- and the suite compares, as Python objects,

* per-drain registry checkpoints (the warmup drain and the main drain),
  so a divergence is localised to the drain that introduced it,
* the final registry snapshot,
* the per-class latency histogram buckets, and
* the full ``RunResult.to_dict()``.

The plain run itself is pinned bit for bit by ``tests/test_golden.py``.
A second check pins that a stock mix long enough to cross its own churn
boundary really takes the churn path alongside ordinary accesses.
"""

import pytest

from repro.experiments.parallel import resolve_engine
from repro.sim.config import tiny_config
from repro.sim.profiler import PhaseProfiler
from repro.sim.simulator import Simulator
from repro.sim.trace import EventTracer
from repro.workloads.mixes import build_mix
from tests import test_golden as golden


def _run(scheme, instrumented):
    tracer = EventTracer(limit=None) if instrumented else None
    profiler = PhaseProfiler() if instrumented else None
    sim, workload = golden.build(scheme, "M-2",
                                 golden.default_policy(scheme),
                                 tracer=tracer, profiler=profiler)
    checkpoints = []
    orig_drain = sim._drain

    def checkpointed_drain(states, until):
        orig_drain(states, until)
        checkpoints.append(sim.registry.snapshot())

    sim._drain = checkpointed_drain
    result = sim.run(workload, warmup=golden.WARMUP)
    if instrumented:
        assert tracer.events(), "the tracer recorded nothing"
        assert profiler.phase_calls, "the profiler measured nothing"
    return (result.to_dict(), sim.registry.snapshot(),
            golden.hist_state(sim), checkpoints)


@pytest.mark.parametrize("scheme", golden.ENGINES)
def test_lockstep_bit_identical(scheme):
    p_res, p_reg, p_hist, p_ckpt = _run(scheme, instrumented=False)
    i_res, i_reg, i_hist, i_ckpt = _run(scheme, instrumented=True)
    # Checkpoints first: a warmup-drain divergence shows up here even
    # when it happens to cancel out of the final statistics.
    assert len(p_ckpt) == len(i_ckpt) == 2   # warmup drain + main drain
    for i, (p, t) in enumerate(zip(p_ckpt, i_ckpt)):
        assert p == t, f"registry diverged at drain checkpoint {i}"
    assert p_reg == i_reg
    assert p_hist == i_hist, "per-class latency histogram buckets differ"
    assert p_res == i_res


def test_churny_stream_takes_both_paths():
    """The golden churn cells force a short ``churn_every``; a stock mix
    must reach the churn path on its own too.  M-1's dedup churns every
    1500 accesses, so a 1600-access stream crosses one boundary per
    core while most accesses stay on the ordinary path."""
    cfg = tiny_config(n_cores=4)
    engine = resolve_engine("ivleague-basic")(cfg, seed=11)
    workload = build_mix("M-1", n_accesses=1600, seed=3, scale=0.05)
    sim = Simulator(cfg, engine, seed=3, frame_policy="fragmented")
    churns = []
    orig = sim._churn

    def counting_churn(state, now):
        churns.append(state.domain)
        return orig(state, now)

    sim._churn = counting_churn
    result = sim.run(workload, warmup=100)
    # mem_accesses excludes warmup, so compare against the full stream
    assert churns, "no access ever crossed a churn boundary"
    assert len(churns) < 4 * 1600, "every access took the churn path"
    assert sum(c.mem_accesses for c in result.cores) > 0
