"""Tests for the phase-attribution profiler: deterministic
exclusive-time accounting under a fake clock, zero perturbation of
simulation results, the ≥90% coverage self-check against real runs,
and the CLI ``--profile-phases`` plumbing."""

import time

import pytest

from repro import ENGINES
from repro.secure.engine import BaselineEngine
from repro.sim import profiler as profiler_mod
from repro.sim.batched import make_simulator
from repro.sim.profiler import (COVERAGE_FLOOR, NULL_PROFILER, NullProfiler,
                                PhaseProfiler, format_phase_table)
from repro.workloads.generator import build_workload

def _wl(n=1200):
    return build_workload("p", ["gcc", "x264"], n, seed=1, scale=0.03)


class TestNullProfiler:
    def test_disabled_and_noop(self):
        p = NullProfiler()
        assert p.enabled is False
        assert p.push("verify") is None
        assert p.pop() is None
        assert p.run_begin() is None
        assert p.run_end() is None

    def test_shared_singleton(self):
        assert isinstance(NULL_PROFILER, NullProfiler)
        assert not NULL_PROFILER.enabled


class FakeClock:
    """Deterministic replacement for ``profiler._now``."""

    def __init__(self):
        self.t = 0

    def advance(self, ns):
        self.t += ns

    def __call__(self):
        return self.t


@pytest.fixture
def clock(monkeypatch):
    clk = FakeClock()
    monkeypatch.setattr(profiler_mod, "_now", clk)
    return clk


class TestExclusiveAttribution:
    def test_nested_phase_carves_out_of_parent(self, clock):
        p = PhaseProfiler()
        p.push("scheduler")
        clock.advance(10)
        p.push("dram")          # scheduler charged 10 here
        clock.advance(5)
        p.pop()                 # dram charged 5, scheduler resumes
        clock.advance(7)
        p.pop()                 # scheduler charged 7 more
        assert p.phase_ns == {"scheduler": 17, "dram": 5}
        assert p.phase_calls == {"scheduler": 1, "dram": 1}
        assert p.attributed_ns == 22

    def test_sibling_phases_accumulate_independently(self, clock):
        p = PhaseProfiler()
        for ns in (3, 4):
            p.push("verify")
            clock.advance(ns)
            p.pop()
        p.push("mac")
        clock.advance(6)
        p.pop()
        assert p.phase_ns == {"verify": 7, "mac": 6}
        assert p.phase_calls == {"verify": 2, "mac": 1}

    def test_run_window_and_coverage(self, clock):
        p = PhaseProfiler()
        p.run_begin()
        p.push("scheduler")
        clock.advance(80)
        p.pop()
        clock.advance(20)       # unattributed tail (result assembly)
        p.run_end()
        assert p.measured_ns == 100
        assert p.coverage() == pytest.approx(0.80)
        # the falsifiable form: an external, larger measurement
        assert p.coverage(measured_ns=200) == pytest.approx(0.40)
        assert p.coverage(measured_ns=0) == 0.0

    def test_merge_adds_time_and_calls(self, clock):
        a, b = PhaseProfiler(), PhaseProfiler()
        a.push("dram")
        clock.advance(5)
        a.pop()
        b.push("dram")
        clock.advance(7)
        b.pop()
        b.push("mac")
        clock.advance(2)
        b.pop()
        a.merge(b)
        assert a.phase_ns == {"dram": 12, "mac": 2}
        assert a.phase_calls == {"dram": 2, "mac": 1}

    def test_report_sorts_by_self_time(self, clock):
        p = PhaseProfiler()
        p.push("mac")
        clock.advance(2)
        p.pop()
        p.push("dram")
        clock.advance(9)
        p.pop()
        rep = p.report(measured_ns=11)
        assert [row["phase"] for row in rep["phases"]] == ["dram", "mac"]
        assert rep["phases"][0]["share"] == pytest.approx(9 / 11)
        assert rep["coverage"] == pytest.approx(1.0)
        assert rep["coverage_floor"] == COVERAGE_FLOOR


class TestFormatPhaseTable:
    def _report(self, clock, attributed, measured):
        p = PhaseProfiler()
        p.push("scheduler")
        clock.advance(attributed)
        p.pop()
        return p.report(measured_ns=measured)

    def test_ok_when_all_reports_clear_the_floor(self, clock):
        text, ok = format_phase_table(
            [("baseline", self._report(clock, 95, 100))])
        assert ok
        assert "scheduler" in text and "[ok]" in text

    def test_flags_low_coverage(self, clock):
        reports = [("baseline", self._report(clock, 95, 100)),
                   ("ivleague-pro", self._report(clock, 50, 100))]
        text, ok = format_phase_table(reports)
        assert not ok
        assert "[LOW]" in text and "[ok]" in text


class TestProfiledRuns:
    """The acceptance criteria: real runs attribute ≥90% of externally
    measured wall time without changing any result."""

    @pytest.mark.parametrize("scheme", ["baseline", "ivleague-pro"])
    def test_coverage_floor_on_real_runs(self, tiny, scheme):
        prof = PhaseProfiler()
        sim = make_simulator(tiny, ENGINES[scheme](tiny), profiler=prof)
        t0 = time.perf_counter_ns()
        sim.run(_wl(), warmup=300)
        wall = time.perf_counter_ns() - t0
        assert prof.coverage(wall) >= COVERAGE_FLOOR, (
            f"{scheme}: attributed only "
            f"{prof.coverage(wall):.1%} of {wall / 1e6:.1f}ms")
        # the root phase and the model phases both show up
        assert "scheduler" in prof.phase_ns
        assert "dram" in prof.phase_ns
        assert "verify" in prof.phase_ns

    def test_profiling_does_not_change_simulation(self, tiny):
        wl = _wl()
        plain = make_simulator(tiny, BaselineEngine(tiny))
        profiled = make_simulator(tiny, BaselineEngine(tiny),
                                  profiler=PhaseProfiler())
        r0 = plain.run(wl, warmup=300)
        r1 = profiled.run(wl, warmup=300)
        assert r0.registry_snapshot == r1.registry_snapshot

    def test_profiled_m2_run_measures_the_shipping_path(self):
        """One profiled churning M-2 cell of the golden fixture: every
        model phase appears, coverage clears the floor, and the run is
        the one the fixture pins (profiling is guarded branches on the
        only core and engine path, not a different program)."""
        from tests import test_golden as golden

        scheme = "ivleague-pro"
        policy = golden.default_policy(scheme)
        plain, workload = golden.build(scheme, "M-2", policy, churn=True)
        plain.run(workload, warmup=golden.WARMUP)
        prof = PhaseProfiler()
        sim, workload = golden.build(scheme, "M-2", policy, profiler=prof,
                                     churn=True)
        t0 = time.perf_counter_ns()
        result = sim.run(workload, warmup=golden.WARMUP)
        wall = time.perf_counter_ns() - t0
        for phase in ("page_fault", "tlb_walk", "churn", "mac", "verify",
                      "dram", "scheduler"):
            assert prof.phase_calls.get(phase, 0) > 0, phase
        assert prof.coverage(wall) >= COVERAGE_FLOOR, (
            f"attributed only {prof.coverage(wall):.1%} of "
            f"{wall / 1e6:.1f}ms")
        assert sim.registry.snapshot() == plain.registry.snapshot()
        want = golden.golden()["churn"][scheme]["cell"]["result"]
        assert golden.sha(result.to_dict()) == want


class TestCliProfilePhases:
    def test_run_profile_phases_prints_table(self, capsys):
        from repro.cli import main
        rc = main(["run", "S-1", "--scheme", "baseline",
                   "--accesses", "1500", "--profile-phases"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "phase attribution" in out
        assert "scheduler" in out and "[ok]" in out
