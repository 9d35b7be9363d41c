"""Tests for the ablation harnesses (tiny scale)."""

import pytest

from repro.experiments import ablations
from repro.experiments.options import EngineOptions
from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import SimulationRunner
from repro.machine.protection import ProtectionLevel


@pytest.fixture(scope="module")
def runner():
    return SimulationRunner(scale=0.1)


class TestErrorClassDecomposition:
    def test_grid_complete(self, runner):
        cells = ablations.error_class_decomposition(
            mtbe=100_000, n_seeds=1, runner=runner
        )
        assert len(cells) == 3 * 3
        classes = {c.error_class for c in cells}
        assert classes == set(ablations.CLASS_MODELS)
        for cell in cells:
            assert cell.mean_quality_db <= 96.0

    def test_each_class_lands_where_the_paper_puts_it(self, runner):
        cells = ablations.error_class_decomposition(
            mtbe=400_000, n_seeds=2, runner=runner
        )
        table = {(c.error_class, c.protection): c.mean_quality_db for c in cells}
        # Control-flow errors are the class only CommGuard repairs.
        assert (
            table[("control-only", ProtectionLevel.COMMGUARD)]
            > table[("control-only", ProtectionLevel.PPU_RELIABLE_QUEUE)]
        )
        # Data errors are tolerable whatever the protection.
        assert table[("data-only", ProtectionLevel.COMMGUARD)] > 15.0
        # Address errors wreck the corruptible software queue the most.
        assert (
            table[("address-only", ProtectionLevel.COMMGUARD)]
            >= table[("address-only", ProtectionLevel.PPU_ONLY)] - 0.5
        )


class TestMaskingSensitivity:
    def test_returns_requested_rates(self, runner):
        results = ablations.masking_sensitivity(
            mtbe=100_000, n_seeds=1, masking_rates=(0.0, 0.9), runner=runner
        )
        assert set(results) == {0.0, 0.9}

    def test_more_masking_never_hurts(self, runner):
        results = ablations.masking_sensitivity(
            mtbe=256_000, n_seeds=2, runner=runner
        )
        rates = sorted(results)
        assert results[rates[0]] <= results[rates[-1]] + 0.5

    def test_full_masking_equals_error_free(self, runner):
        """With p_masked near 1 and rare errors, quality hits the cap."""
        results = ablations.masking_sensitivity(
            mtbe=1e9, n_seeds=1, masking_rates=(0.99,), runner=runner
        )
        app = runner.app("jpeg")
        assert results[0.99] >= app.baseline_quality() - 0.1


class TestWorksetSizing:
    def test_overhead_monotone_down(self, runner):
        results = ablations.workset_size_overhead(
            workset_sizes=(4, 64, 1024), runner=runner
        )
        assert results[1024] <= results[64] <= results[4]

    def test_ratios_positive(self, runner):
        results = ablations.workset_size_overhead(
            workset_sizes=(16,), runner=runner
        )
        assert results[16] > 0


class TestEngineOptions:
    @pytest.fixture
    def runner_scales(self, monkeypatch):
        """The build scale of every runner that executes a sweep."""
        scales = []
        run_specs = ParallelRunner.run_specs

        def spy(self, specs, jobs=None):
            scales.append(self.scale)
            return run_specs(self, specs, jobs)

        monkeypatch.setattr(ParallelRunner, "run_specs", spy)
        return scales

    def test_cli_scale_reaches_every_sweep(self, runner_scales, capsys):
        from repro.cli import main

        assert main(
            ["figure", "ablations", "--scale", "0.05", "--jobs", "1", "--no-cache"]
        ) == 0
        assert "working-set size" in capsys.readouterr().out
        # error classes, masking, working sets: the last one included
        assert runner_scales == [0.05, 0.05, 0.05]

    def test_workset_sweep_defaults_to_half_scale(self, runner_scales):
        ablations.workset_size_overhead(
            workset_sizes=(16,), options=EngineOptions(jobs=1, cache=False)
        )
        assert runner_scales == [0.5]
