"""Simulator construction hook.

``make_simulator`` is looked up as a module attribute at call time by
:func:`repro.experiments.parallel.run_cell` (and the CLI), so a harness
can wrap machine construction for the length of a call by replacing
this attribute -- the benchmark harness times set-up apart from
simulation this way.
"""

from __future__ import annotations

from repro.sim.simulator import Simulator


def make_simulator(config, engine, seed: int = 123,
                   frame_policy: str = "sequential", tracer=None,
                   profiler=None) -> Simulator:
    """Build the simulator for one run."""
    return Simulator(config, engine, seed=seed, frame_policy=frame_policy,
                     tracer=tracer, profiler=profiler)
