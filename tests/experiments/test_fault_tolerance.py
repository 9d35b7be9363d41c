"""Fault-tolerance tests for the sweep engine.

Exercises the robustness layer of :class:`ParallelRunner` against the
deterministic fault hooks in :mod:`tests.experiments._fault_hooks`:
bounded retries, per-run timeouts, worker-crash isolation, strict vs
keep-going failure semantics, and interruption with every completed
run already in the store.  The core invariant throughout: a sweep that
survives its faults returns records bit-identical to a fault-free serial
sweep.
"""

import pytest

from repro.experiments.parallel import (
    FailureRecord,
    ParallelRunner,
    RunSpec,
    RunTimeoutError,
    SweepRunError,
    SweepStats,
    resolve_jobs,
)
from repro.experiments.store import RunStore
from repro.observability import InMemoryTracer
from tests.experiments import _fault_hooks as hooks

SCALE = 0.05


def specs_grid(n_seeds=3, mtbe=100_000):
    return [RunSpec(app="fft", mtbe=mtbe, seed=seed) for seed in range(n_seeds)]


@pytest.fixture(scope="module")
def clean_records():
    """Fault-free serial baseline over the shared grid."""
    return ParallelRunner(scale=SCALE, jobs=1).run_specs(specs_grid())


class TestRetryOnException:
    def test_serial_retry_recovers_bit_identical(self, clean_records):
        runner = ParallelRunner(
            scale=SCALE, jobs=1, retries=1, fault_hook=hooks.fail_once
        )
        assert runner.run_specs(specs_grid()) == clean_records
        assert runner.last_stats.retried == 1
        assert runner.last_stats.failed == 0
        assert runner.last_stats.worker_crashes == 0

    def test_pool_retry_recovers_bit_identical(self, clean_records):
        runner = ParallelRunner(
            scale=SCALE, jobs=2, retries=1, fault_hook=hooks.fail_once
        )
        assert runner.run_specs(specs_grid()) == clean_records
        assert runner.last_stats.retried == 1
        assert runner.last_stats.failed == 0

    def test_retries_zero_vs_many_identical_without_faults(
        self, clean_records, tmp_path
    ):
        # Retry plumbing must be invisible when nothing fails: same
        # records, same content keys, at any retry budget.
        stores = []
        for retries in (0, 3):
            store = RunStore(tmp_path / f"retries{retries}.sqlite")
            runner = ParallelRunner(
                scale=SCALE, jobs=2, retries=retries, store=store
            )
            assert runner.run_specs(specs_grid()) == clean_records
            assert runner.last_stats.retried == 0
            stores.append(store.keys())
        assert stores[0] == stores[1]

    def test_backoff_is_deterministic_and_bounded(self):
        runner = ParallelRunner(
            scale=SCALE,
            jobs=1,
            retries=2,
            retry_backoff=0.01,
            fault_hook=hooks.fail_once,
        )
        tracer = InMemoryTracer()
        runner.tracer = tracer
        runner.run_specs(specs_grid(n_seeds=2))
        (retry,) = tracer.of_kind("run-retried")
        assert retry.backoff_seconds == 0.01  # 0.01 * 2**0, no jitter
        assert retry.attempt == 1


class TestRunTimeouts:
    def test_serial_timeout_preempts_and_retries(self, clean_records):
        runner = ParallelRunner(
            scale=SCALE,
            jobs=1,
            retries=1,
            run_timeout=0.5,
            fault_hook=hooks.hang_once,
        )
        assert runner.run_specs(specs_grid()) == clean_records
        assert runner.last_stats.retried == 1
        assert runner.last_stats.failed == 0

    def test_pool_timeout_preempts_and_retries(self, clean_records):
        runner = ParallelRunner(
            scale=SCALE,
            jobs=2,
            retries=1,
            run_timeout=0.5,
            fault_hook=hooks.hang_once,
        )
        assert runner.run_specs(specs_grid()) == clean_records
        assert runner.last_stats.retried == 1
        assert runner.last_stats.worker_crashes == 0  # preempted, not killed

    def test_timeout_exhaustion_is_a_timeout_failure(self):
        runner = ParallelRunner(
            scale=SCALE,
            jobs=1,
            run_timeout=0.2,
            strict=False,
            fault_hook=lambda spec, attempt: hooks.hang_once(spec, 0),
        )
        records = runner.run_specs(specs_grid(n_seeds=2))
        assert records[hooks.VICTIM_SEED] is None
        (failure,) = runner.last_stats.failures
        assert failure.failure == "timeout"
        assert "wall-clock" in failure.message

    def test_run_timeout_must_be_positive(self):
        with pytest.raises(ValueError, match="run_timeout"):
            ParallelRunner(run_timeout=0)

    def test_retries_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="retries"):
            ParallelRunner(retries=-1)


class TestWorkerCrashIsolation:
    def test_crash_retry_recovers_bit_identical(self, clean_records):
        runner = ParallelRunner(
            scale=SCALE, jobs=2, retries=1, fault_hook=hooks.crash_once
        )
        tracer = InMemoryTracer()
        runner.tracer = tracer
        assert runner.run_specs(specs_grid()) == clean_records
        assert runner.last_stats.failed == 0
        assert runner.last_stats.worker_crashes >= 1
        assert tracer.count("worker-crashed") == runner.last_stats.worker_crashes

    def test_poison_spec_fails_without_dooming_innocents(self, clean_records):
        # Innocent specs lost to the broken pool are quarantined without
        # being charged an attempt, so with retries=0 they still complete
        # and only the crasher becomes a failure.
        runner = ParallelRunner(
            scale=SCALE, jobs=2, strict=False, fault_hook=hooks.always_crash
        )
        records = runner.run_specs(specs_grid())
        assert records[hooks.VICTIM_SEED] is None
        for index, record in enumerate(records):
            if index != hooks.VICTIM_SEED:
                assert record == clean_records[index]
        (failure,) = runner.last_stats.failures
        assert failure.failure == "crash"
        assert failure.index == hooks.VICTIM_SEED
        assert "died" in failure.message

    def test_crash_failure_raises_in_strict_mode(self):
        runner = ParallelRunner(
            scale=SCALE, jobs=2, fault_hook=hooks.always_crash
        )
        with pytest.raises(SweepRunError, match="crash"):
            runner.run_specs(specs_grid())
        assert runner.last_stats.failed == 1


class TestFailureSemantics:
    def test_strict_raise_carries_failure_record(self):
        runner = ParallelRunner(
            scale=SCALE, jobs=1, retries=1, fault_hook=hooks.always_fail
        )
        with pytest.raises(SweepRunError) as excinfo:
            runner.run_specs(specs_grid(n_seeds=2))
        failure = excinfo.value.failure
        assert isinstance(failure, FailureRecord)
        assert failure.failure == "exception"
        assert failure.attempts == 2  # first try + one retry
        assert "injected fault" in failure.message
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_keep_going_completes_the_rest(self, clean_records):
        runner = ParallelRunner(
            scale=SCALE, jobs=1, strict=False, fault_hook=hooks.always_fail
        )
        records = runner.run_specs(specs_grid())
        assert records[hooks.VICTIM_SEED] is None
        for index, record in enumerate(records):
            if index != hooks.VICTIM_SEED:
                assert record == clean_records[index]
        assert runner.last_stats.failed == 1
        assert "1 failed" in runner.last_stats.summary()

    def test_failure_summary_names_the_point(self):
        failure = FailureRecord(
            index=1,
            spec=RunSpec(app="fft", mtbe=100_000, seed=1),
            failure="timeout",
            message="run exceeded its 5s wall-clock limit",
            attempts=3,
        )
        text = failure.summary()
        assert "fft" in text and "seed=1" in text
        assert "timeout after 3 attempt(s)" in text

    def test_fault_events_reach_the_tracer(self):
        runner = ParallelRunner(
            scale=SCALE,
            jobs=1,
            retries=1,
            strict=False,
            fault_hook=hooks.always_fail,
        )
        tracer = InMemoryTracer()
        runner.tracer = tracer
        runner.run_specs(specs_grid(n_seeds=2))
        assert tracer.count("run-retried") == 1
        (failed,) = tracer.of_kind("run-failed")
        assert failed.failure == "exception"
        assert failed.attempts == 2

    def test_fault_metrics_are_labelled(self):
        runner = ParallelRunner(
            scale=SCALE,
            jobs=1,
            retries=1,
            strict=False,
            fault_hook=hooks.always_fail,
        )
        runner.run_specs(specs_grid(n_seeds=2))
        assert (
            runner.metrics.counter(
                "sweep_run_retries", app="fft", failure="exception"
            )
            == 1
        )
        assert (
            runner.metrics.counter(
                "sweep_run_failures", app="fft", failure="exception"
            )
            == 1
        )

    def test_string_fault_hook_is_imported(self):
        runner = ParallelRunner(
            scale=SCALE,
            jobs=1,
            strict=False,
            fault_hook="tests.experiments._fault_hooks:always_fail",
        )
        records = runner.run_specs(specs_grid(n_seeds=2))
        assert records[hooks.VICTIM_SEED] is None


class TestInterruption:
    def test_keyboard_interrupt_flushes_completed_records(self, tmp_path):
        store = RunStore(tmp_path / "store.sqlite")

        def interrupt_after_two(stats):
            if stats.completed == 2:
                raise KeyboardInterrupt

        runner = ParallelRunner(
            scale=SCALE, jobs=1, store=store, progress=interrupt_after_two
        )
        with pytest.raises(KeyboardInterrupt):
            runner.run_specs(specs_grid())
        assert runner.last_stats.interrupted
        assert runner.last_stats.completed == 2
        assert runner.last_stats.wall_seconds > 0
        assert "[interrupted]" in runner.last_stats.summary()
        assert len(store) == 2

        # Resuming with the same store skips the flushed points.
        resumed = ParallelRunner(scale=SCALE, jobs=1, store=store)
        resumed.run_specs(specs_grid())
        assert resumed.last_stats.cache_hits == 2
        assert resumed.last_stats.executed == 1


class TestStatsFreshness:
    def test_wall_seconds_fresh_without_progress_callback(self):
        runner = ParallelRunner(scale=SCALE, jobs=1)
        runner.run_specs(specs_grid(n_seeds=1))
        assert runner.last_stats.wall_seconds > 0

    def test_summary_reports_fault_counts(self):
        stats = SweepStats(
            total=4, executed=3, failed=1, retried=2, worker_crashes=1
        )
        assert "1 failed, 2 retried, 1 worker crash(es)" in stats.summary()

    def test_summary_is_quiet_without_faults(self):
        assert "failed" not in SweepStats(total=4, executed=4).summary()


class TestJobsEnvErrors:
    def test_non_numeric_env_names_variable_and_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        with pytest.raises(ValueError, match="REPRO_JOBS='lots'"):
            resolve_jobs(None)

    def test_message_suggests_the_fix(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4.5")
        with pytest.raises(ValueError, match="unset it to use"):
            resolve_jobs(None)


class TestSweepProgressContract:
    """The last ``sweep-progress`` event of a sweep mirrors its final
    :class:`SweepStats` — the counting contract pinned in
    :mod:`repro.observability.events`."""

    def final_progress(self, runner, specs):
        tracer = InMemoryTracer()
        runner.tracer = tracer
        runner.run_specs(specs)
        return tracer.of_kind("sweep-progress")[-1]

    def test_clean_sweep_reports_zero_failures(self):
        runner = ParallelRunner(scale=SCALE, jobs=1)
        last = self.final_progress(runner, specs_grid())
        stats = runner.last_stats
        assert (last.completed, last.total) == (stats.completed, stats.total)
        assert last.executed == stats.executed
        assert last.cache_hits == stats.cache_hits
        assert last.failures == stats.failed == 0

    def test_keep_going_failures_are_counted(self):
        runner = ParallelRunner(
            scale=SCALE, jobs=1, strict=False, fault_hook=hooks.always_fail
        )
        last = self.final_progress(runner, specs_grid())
        stats = runner.last_stats
        assert stats.failed == 1
        assert last.failures == stats.failed
        # completed counts successes only; the failed point is accounted
        # in failures, so completed + failures covers the whole grid.
        assert last.completed == stats.completed == last.total - 1
        assert last.completed + last.failures == last.total
        assert last.executed == stats.executed
