"""Tests for the fault-injection campaign harness."""

import pytest

from repro.experiments.campaign import (
    CampaignResult,
    Outcome,
    OutcomeThresholds,
    classify_outcome,
    compare_protections,
    run_campaign,
)
from repro.experiments.parallel import ParallelRunner, RunSpec
from repro.experiments.runner import SimulationRunner
from repro.machine.protection import ProtectionLevel

T = OutcomeThresholds(tolerable_db=5.0, catastrophic_db=5.0)


class TestClassification:
    def test_hung_is_catastrophic(self):
        assert classify_outcome(40.0, 30.0, hung=True, thresholds=T) is Outcome.CATASTROPHIC

    def test_at_baseline_is_error_free(self):
        assert classify_outcome(30.0, 30.0, False, T) is Outcome.ERROR_FREE

    def test_infinite_quality_capped(self):
        assert (
            classify_outcome(float("inf"), float("inf"), False, T)
            is Outcome.ERROR_FREE
        )

    def test_small_drop_tolerable(self):
        assert classify_outcome(26.0, 30.0, False, T) is Outcome.TOLERABLE

    def test_large_drop_degraded(self):
        assert classify_outcome(15.0, 30.0, False, T) is Outcome.DEGRADED

    def test_floor_catastrophic(self):
        assert classify_outcome(3.0, 30.0, False, T) is Outcome.CATASTROPHIC

    def test_boundaries(self):
        assert classify_outcome(25.0, 30.0, False, T) is Outcome.TOLERABLE
        assert classify_outcome(5.0, 30.0, False, T) is Outcome.CATASTROPHIC

    def test_hung_beats_perfect_quality(self):
        # A hung run is catastrophic no matter what the quality metric says.
        assert (
            classify_outcome(float("inf"), 30.0, hung=True, thresholds=T)
            is Outcome.CATASTROPHIC
        )

    def test_just_above_catastrophic_floor(self):
        assert classify_outcome(5.001, 30.0, False, T) is Outcome.DEGRADED

    def test_quality_above_baseline_is_error_free(self):
        assert classify_outcome(35.0, 30.0, False, T) is Outcome.ERROR_FREE


class TestCampaignResult:
    def test_fractions(self):
        result = CampaignResult("x", ProtectionLevel.COMMGUARD, 1000)
        result.counts = {Outcome.ERROR_FREE: 3, Outcome.TOLERABLE: 1}
        assert result.n_runs == 4
        assert result.fraction(Outcome.ERROR_FREE) == 0.75
        assert result.acceptable_fraction() == 1.0

    def test_empty_safe(self):
        result = CampaignResult("x", ProtectionLevel.COMMGUARD, 1000)
        assert result.fraction(Outcome.DEGRADED) == 0.0


class TestCampaignRuns:
    @pytest.fixture(scope="class")
    def runner(self):
        return SimulationRunner(scale=0.1)

    def test_campaign_counts_sum(self, runner):
        app = runner.app("fft")
        result = run_campaign(
            app, ProtectionLevel.COMMGUARD, mtbe=100_000, n_runs=4
        )
        assert result.n_runs == 4
        assert len(result.qualities) == 4

    def test_rare_errors_mostly_error_free(self, runner):
        app = runner.app("fft")
        result = run_campaign(app, ProtectionLevel.COMMGUARD, mtbe=1e9, n_runs=3)
        assert result.fraction(Outcome.ERROR_FREE) == 1.0

    def test_compare_protections_structure(self, runner):
        results = compare_protections(
            "complex-fir", mtbe=40_000, n_runs=3, runner=runner
        )
        assert set(results) == {
            ProtectionLevel.PPU_ONLY,
            ProtectionLevel.PPU_RELIABLE_QUEUE,
            ProtectionLevel.COMMGUARD,
        }
        for campaign in results.values():
            assert campaign.n_runs == 3

    def test_campaign_honours_frame_scale(self, runner):
        result = run_campaign(
            "fft",
            ProtectionLevel.COMMGUARD,
            mtbe=100_000,
            n_runs=2,
            frame_scale=4,
            runner=runner,
        )
        assert result.n_runs == 2

    def test_campaign_spec_carries_design_knobs(self, runner):
        spec = RunSpec(app="fft", workset_units=16)
        result = run_campaign(
            "fft",
            ProtectionLevel.COMMGUARD,
            mtbe=100_000,
            n_runs=2,
            spec=spec,
            runner=runner,
        )
        assert result.n_runs == 2

    def test_campaign_through_parallel_engine_matches_serial(self):
        serial = run_campaign(
            "fft",
            ProtectionLevel.COMMGUARD,
            mtbe=100_000,
            n_runs=3,
            runner=ParallelRunner(scale=0.1, jobs=1),
        )
        fanned = run_campaign(
            "fft",
            ProtectionLevel.COMMGUARD,
            mtbe=100_000,
            n_runs=3,
            runner=ParallelRunner(scale=0.1, jobs=2),
        )
        assert serial.counts == fanned.counts
        assert serial.qualities == fanned.qualities

    def test_prebuilt_app_shares_runner_cache(self):
        engine = ParallelRunner(scale=0.1, jobs=1)
        app = engine.app("fft")
        result = run_campaign(
            app, ProtectionLevel.COMMGUARD, mtbe=1e9, n_runs=2, runner=engine
        )
        assert result.app == "fft"
        assert engine.app("fft") is app

    def test_commguard_acceptable_fraction_dominates(self):
        """At a high error rate on jpeg, CommGuard's acceptable fraction
        must beat the unprotected baselines' (the paper's core claim in
        campaign form)."""
        runner = SimulationRunner(scale=1.0)
        results = compare_protections(
            "jpeg", mtbe=300_000, n_runs=4, runner=runner
        )
        guarded = results[ProtectionLevel.COMMGUARD]
        assert guarded.acceptable_fraction() + guarded.fraction(
            Outcome.DEGRADED
        ) >= results[ProtectionLevel.PPU_RELIABLE_QUEUE].acceptable_fraction()
        assert guarded.mean_quality() > results[
            ProtectionLevel.PPU_RELIABLE_QUEUE
        ].mean_quality()
        assert guarded.fraction(Outcome.CATASTROPHIC) <= results[
            ProtectionLevel.PPU_RELIABLE_QUEUE
        ].fraction(Outcome.CATASTROPHIC)
