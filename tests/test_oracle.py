"""Tests for the differential functional-vs-timing oracle
(:mod:`repro.sim.oracle`): clean lockstep replays agree for every
scheme, injected model faults are flagged, and the regressions the
oracle found during bring-up stay fixed."""

import pytest

from repro.sim.oracle import (DEFAULT_SCHEMES, MODEL_FAULTS,
                              OracleDisagreement, verify_scheme)


@pytest.mark.parametrize("scheme", DEFAULT_SCHEMES)
class TestCleanReplay:
    def test_engine_agrees_with_functional_model(self, scheme):
        rep = verify_scheme(scheme, "S-1", n_accesses=300, seed=0,
                            checkpoint_every=100,
                            overflow_writes_per_page=48)
        assert rep.ok, [f"{d.kind}: {d.detail}" for d in rep.disagreements]
        assert rep.ops == 4 * 300   # 4 per-core traces
        assert rep.checkpoints >= 3
        assert rep.scheme == scheme

    def test_churny_mix_with_page_recycling_agrees(self, scheme):
        """Regression (oracle bring-up): freed-then-reallocated frames
        still decrypt to the previous owner's bytes (the functional
        model never scrubs), and the engine's per-page write count dies
        with the page while the plaintext expectation survives."""
        rep = verify_scheme(scheme, "M-2", n_accesses=300, seed=3,
                            checkpoint_every=100,
                            overflow_writes_per_page=48)
        assert rep.ok, [f"{d.kind}: {d.detail}" for d in rep.disagreements]


class TestModelFaultSensitivity:
    """A differential harness that cannot catch an injected engine bug
    would silently certify broken engines."""

    @pytest.mark.parametrize("fault", MODEL_FAULTS)
    def test_fault_is_flagged(self, fault):
        rep = verify_scheme("baseline", "S-2", n_accesses=400, seed=5,
                            checkpoint_every=100,
                            overflow_writes_per_page=16,
                            model_fault=fault)
        assert rep.disagreements
        assert not rep.ok

    def test_drop_writeback_breaks_writeback_contract(self):
        rep = verify_scheme("baseline", "S-2", n_accesses=400, seed=5,
                            checkpoint_every=100,
                            overflow_writes_per_page=16,
                            model_fault="drop-writeback")
        assert any(d.kind == "stat:writebacks-absorbed"
                   for d in rep.disagreements)

    def test_missed_reencrypt_breaks_reencrypt_contract(self):
        rep = verify_scheme("baseline", "S-2", n_accesses=400, seed=5,
                            checkpoint_every=100,
                            overflow_writes_per_page=16,
                            model_fault="missed-reencrypt")
        assert any(d.kind == "stat:page-reencrypts"
                   for d in rep.disagreements)

    def test_stale_counter_fill_trips_cold_start_rule(self):
        rep = verify_scheme("baseline", "S-2", n_accesses=400, seed=5,
                            checkpoint_every=100,
                            overflow_writes_per_page=16,
                            model_fault="stale-counter-fill")
        assert any(d.kind == "stale-counter-hit"
                   for d in rep.disagreements)

    def test_strict_mode_raises(self):
        with pytest.raises(OracleDisagreement):
            verify_scheme("baseline", "S-2", n_accesses=400, seed=5,
                          checkpoint_every=100,
                          overflow_writes_per_page=16,
                          model_fault="drop-writeback", strict=True)

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError):
            verify_scheme("baseline", "S-1", n_accesses=50,
                          model_fault="no-such-fault")


class TestOracleReport:
    def test_report_roundtrips_to_dict(self):
        rep = verify_scheme("baseline", "S-1", n_accesses=200, seed=1,
                            checkpoint_every=100)
        d = rep.to_dict()
        assert d["ok"] is True
        assert d["scheme"] == "baseline"
        assert d["ops"] == 4 * 200
        assert d["faults"]["injected"] == 0

    def test_replay_is_deterministic(self):
        a = verify_scheme("ivleague-basic", "S-1", n_accesses=200,
                          seed=2, checkpoint_every=100).to_dict()
        b = verify_scheme("ivleague-basic", "S-1", n_accesses=200,
                          seed=2, checkpoint_every=100).to_dict()
        assert a == b

    def test_faulty_replay_is_deterministic(self):
        """The fault campaigns patch engine instances; two replays of
        the same faulty run must flag the same disagreements."""
        kinds = []
        for _ in range(2):
            rep = verify_scheme("baseline", "S-2", n_accesses=300, seed=5,
                                checkpoint_every=100,
                                overflow_writes_per_page=16,
                                model_fault="drop-writeback")
            assert not rep.ok
            kinds.append([d.kind for d in rep.disagreements])
        assert kinds[0] == kinds[1]


class TestCounterDigestRegression:
    def test_digest_never_materialises_blocks(self):
        """Regression (oracle bring-up): digesting the counter store
        must not materialise lazily-zero blocks -- a materialised
        all-zero block hashes differently from the tree's canonical
        zero hash and corrupts later verifications."""
        from repro.secure.counters import CounterStore
        from repro.sim.oracle import DifferentialOracle

        store = CounterStore()
        store.increment(3, 0)
        before = set(store._blocks)
        DifferentialOracle._counter_digest(store)
        assert set(store._blocks) == before

    def test_digest_distinguishes_stores(self):
        from repro.secure.counters import CounterStore
        from repro.sim.oracle import DifferentialOracle

        a, b = CounterStore(), CounterStore()
        a.increment(3, 0)
        b.increment(3, 0)
        assert (DifferentialOracle._counter_digest(a)
                == DifferentialOracle._counter_digest(b))
        b.increment(3, 1)
        assert (DifferentialOracle._counter_digest(a)
                != DifferentialOracle._counter_digest(b))
