"""Golden-digest regression fixture for the simulator and every engine.

``tests/golden/digests.json`` pins, for all nine engines x {S-1, M-2}
x {sequential, fragmented} frame placement on ``tiny_config(n_cores=4)``,
the sha256 of

* ``RunResult.to_dict()``,
* the full registry snapshot (every counter of every component), and
* the per-request-class latency histograms (buckets and summaries);

and, for one traced run per engine, the sha256 of the ``EventTracer``
event stream and of each domain's canonical observable trace.  The
stock cells are too short to cross a churn boundary, so a second set
(``churn``) reruns M-2 with every core freeing pages each
:data:`CHURN_EVERY` accesses, untraced and traced.  A cell that raises
records ``"<ExceptionType>: <message>"`` instead, so a known failure is
pinned as exactly as a result.

The fixture replaces lockstep comparisons between alternative
implementations: any change to the simulator core or an engine's access
path must reproduce these digests bit for bit.  Regenerate (only for a
deliberate change of results, alongside a ``CACHE_SCHEMA_VERSION`` bump)
with::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.experiments.parallel import resolve_engine
from repro.obs.observables import project_events
from repro.sim.config import tiny_config
from repro.sim.simulator import Simulator
from repro.sim.trace import EventTracer
from repro.workloads.mixes import build_mix

FIXTURE = Path(__file__).with_name("golden") / "digests.json"

#: All nine engines across the five scheme families.
ENGINES = ["baseline", "ivleague-basic", "ivleague-invert", "ivleague-pro",
           "ivleague-bv1", "ivleague-bv2", "sgx-counter-tree", "vault",
           "static-partition"]
MIXES = ["S-1", "M-2"]
POLICIES = ["sequential", "fragmented"]

N_ACCESSES = 400
WARMUP = 100
SEED = 3
ENGINE_SEED = 11
SCALE = 0.05
#: Churn period of the ``churn`` cells (the stock mixes churn every
#: 1800-6000 accesses, beyond the 400-access golden traces).
CHURN_EVERY = 100


def sha(obj) -> str:
    """sha256 of the canonical JSON of ``obj`` (after a JSON round trip,
    so int dict keys and tuples digest like their serialized form)."""
    canon = json.dumps(json.loads(json.dumps(obj)), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def build(scheme: str, mix: str, policy: str, tracer=None, profiler=None,
          churn: bool = False):
    """The machine and workload of one golden cell."""
    cfg = tiny_config(n_cores=4)
    engine = resolve_engine(scheme)(cfg, seed=ENGINE_SEED)
    sim = Simulator(cfg, engine, seed=SEED, frame_policy=policy,
                    tracer=tracer, profiler=profiler)
    workload = build_mix(mix, n_accesses=N_ACCESSES, seed=SEED, scale=SCALE)
    if churn:
        for trace in workload.traces:
            trace.churn_every = CHURN_EVERY
    return sim, workload


def default_policy(scheme: str) -> str:
    """Static partitioning on sequential placement, where its
    partitions fit; every other engine on fragmented."""
    return "sequential" if scheme == "static-partition" else "fragmented"


def hist_state(sim) -> dict:
    return {name: {"buckets": sorted(h.counts.items()), **h.to_dict()}
            for name, h in sim._class_hist.items()}


def cell_digests(scheme: str, mix: str, policy: str, profiler=None,
                 churn: bool = False) -> dict:
    """Digests of one cell, or its exception as the golden value."""
    sim, workload = build(scheme, mix, policy, profiler=profiler,
                          churn=churn)
    try:
        result = sim.run(workload, warmup=WARMUP)
    except Exception as exc:   # pinned as the cell's golden value
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"result": sha(result.to_dict()),
            "registry": sha(sim.registry.snapshot()),
            "hist": sha(hist_state(sim))}


def traced_digests(scheme: str, mix: str = "S-1",
                   churn: bool = False) -> dict:
    """Event-stream and per-domain observable digests of the engine's
    traced run."""
    tracer = EventTracer(limit=None)
    sim, workload = build(scheme, mix, default_policy(scheme),
                          tracer=tracer, churn=churn)
    try:
        sim.run(workload, warmup=WARMUP)
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    events = tracer.events()
    traces, problems = project_events(events)
    return {"events": sha(events),
            "n_events": len(events),
            "observables": {str(d): hashlib.sha256(
                t.canonical().encode()).hexdigest()
                for d, t in sorted(traces.items())},
            "problems": len(problems)}


def cell_key(scheme: str, mix: str, policy: str) -> str:
    return f"{scheme}/{mix}/{policy}"


def generate() -> dict:
    return {
        "cells": {cell_key(s, m, p): cell_digests(s, m, p)
                  for s in ENGINES for m in MIXES for p in POLICIES},
        "traced": {s: traced_digests(s) for s in ENGINES},
        "churn": {s: {"cell": cell_digests(s, "M-2", default_policy(s),
                                           churn=True),
                      "traced": traced_digests(s, "M-2", churn=True)}
                  for s in ENGINES},
    }


def golden() -> dict:
    return json.loads(FIXTURE.read_text())


CELLS = [(s, m, p) for s in ENGINES for m in MIXES for p in POLICIES]


@pytest.mark.parametrize("scheme,mix,policy", CELLS,
                         ids=[cell_key(*c) for c in CELLS])
def test_cell_matches_golden(scheme, mix, policy):
    want = golden()["cells"][cell_key(scheme, mix, policy)]
    assert cell_digests(scheme, mix, policy) == want


@pytest.mark.parametrize("scheme", ENGINES)
def test_traced_run_matches_golden(scheme):
    want = golden()["traced"][scheme]
    got = traced_digests(scheme)
    assert got == want


@pytest.mark.parametrize("scheme", ENGINES)
def test_churn_run_matches_golden(scheme):
    want = golden()["churn"][scheme]
    got = {"cell": cell_digests(scheme, "M-2", default_policy(scheme),
                                churn=True),
           "traced": traced_digests(scheme, "M-2", churn=True)}
    assert got == want


def test_fixture_covers_every_cell_and_engine():
    g = golden()
    assert sorted(g["cells"]) == sorted(cell_key(*c) for c in CELLS)
    assert sorted(g["traced"]) == sorted(ENGINES)
    assert sorted(g["churn"]) == sorted(ENGINES)
    # The fixture must pin real results, not only failures.
    ok = [v for v in g["cells"].values() if "error" not in v]
    assert len(ok) >= len(CELLS) - 4


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(generate(), indent=1, sort_keys=True)
                       + "\n")
    print(f"wrote {FIXTURE}")
