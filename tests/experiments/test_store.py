"""RunStore: roundtrips, legacy migration, campaigns, multi-writer safety."""

import json
import sqlite3
import threading

import pytest

from repro.experiments.parallel import FailureRecord, ParallelRunner, RunSpec
from repro.experiments.runner import SimulationRunner
from repro.experiments.store import RunStore, derive_campaign_id
from tests.experiments._legacy_cache import entry_path, write_entry

SCALE = 0.05


@pytest.fixture(scope="module")
def runner():
    return SimulationRunner(scale=SCALE)


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "store.sqlite", fallback=False)


def make_spec(seed: int = 0, mtbe: float = 100_000.0) -> RunSpec:
    return RunSpec(app="fft", mtbe=mtbe, seed=seed)


@pytest.fixture(scope="module")
def executed(runner):
    spec = make_spec()
    return spec, runner.execute_spec(spec)


class TestStoreBasics:
    def test_roundtrip(self, store, executed):
        spec, record = executed
        key = spec.content_key(SCALE)
        assert store.load(key) is None
        assert key not in store
        store.store(key, spec, SCALE, record)
        assert store.load(key) == record
        assert key in store
        assert len(store) == 1
        assert store.keys() == frozenset({key})

    def test_load_miss_without_fallback(self, store):
        assert store.load("no-such-key") is None

    def test_provenance_is_stamped(self, store, executed):
        spec, record = executed
        key = spec.content_key(SCALE)
        store.set_context(jobs=3, campaign="c-test")
        store.store(key, spec, SCALE, record, provenance={"entry": "test"})
        row = store.query()[0]
        assert row.provenance["jobs"] == 3
        assert row.provenance["campaign"] == "c-test"
        assert row.provenance["entry"] == "test"
        assert "written_at" in row.provenance
        assert "worker" in row.provenance

    def test_clear_drops_runs_only(self, store, executed):
        spec, record = executed
        key = spec.content_key(SCALE)
        store.store(key, spec, SCALE, record)
        failure = FailureRecord(
            index=0, spec=make_spec(9), failure="exception",
            message="boom", attempts=1,
        )
        store.record_failure(failure, scale=SCALE)
        assert store.clear() == 1
        assert len(store) == 0
        assert store.failure_for(make_spec(9).content_key(SCALE)) is not None

    def test_coerce(self, store, tmp_path):
        assert RunStore.coerce(None) is None
        assert RunStore.coerce(False) is None
        assert RunStore.coerce(store) is store
        coerced = RunStore.coerce(str(tmp_path / "other.sqlite"))
        assert coerced.path == tmp_path / "other.sqlite"

    def test_future_schema_rejected(self, tmp_path):
        path = tmp_path / "future.sqlite"
        RunStore(path, fallback=False).close()
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("UPDATE meta SET value='99' WHERE key='schema_version'")
        conn.close()
        with pytest.raises(ValueError, match="schema version 99"):
            RunStore(path, fallback=False)


class TestLegacyFallback:
    """The store never reads a 2.x flat cache on its own; ``import_cache``
    migrates one in a single pass."""

    def test_import_cache_migrates_once(self, tmp_path, runner, monkeypatch):
        root = tmp_path / "cache"
        for seed in range(3):
            spec = make_spec(seed)
            write_entry(root, spec, SCALE, runner.execute_spec(spec))
        corrupt = entry_path(root, "e" * 64)
        corrupt.parent.mkdir(parents=True)
        corrupt.write_text("{not json")
        store = RunStore(tmp_path / "store.sqlite")
        spec = make_spec(0)
        assert store.load(spec.content_key(SCALE)) is None  # no read-through
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))  # the default root
        assert store.import_cache() == 3  # the corrupt file is skipped
        assert len(store) == 3
        assert store.load(spec.content_key(SCALE)) == runner.execute_spec(spec)
        assert all("imported_from" in row.provenance for row in store.query())
        assert store.import_cache(root) == 0  # existing rows are skipped

    def test_export_jsonl(self, tmp_path, store, executed):
        import io

        spec, record = executed
        store.store(spec.content_key(SCALE), spec, SCALE, record)
        buffer = io.StringIO()
        assert store.export(buffer) == 1
        line = json.loads(buffer.getvalue())
        assert line["key"] == spec.content_key(SCALE)
        assert line["spec"]["app"] == "fft"


class TestFailures:
    def test_failure_roundtrip_latest_wins(self, store):
        spec = make_spec(5)
        for attempt, message in enumerate(["first", "second"], start=1):
            store.record_failure(
                FailureRecord(
                    index=2, spec=spec, failure="timeout",
                    message=message, attempts=attempt,
                ),
                campaign="c-x",
                scale=SCALE,
            )
        failure = store.failure_for(spec.content_key(SCALE))
        assert failure.message == "second"
        assert failure.attempts == 2
        assert failure.spec == spec

    def test_gc_prunes_superseded_failures(self, store, executed):
        spec, record = executed
        key = spec.content_key(SCALE)
        store.record_failure(
            FailureRecord(
                index=0, spec=spec, failure="exception",
                message="transient", attempts=1,
            ),
            scale=SCALE,
        )
        store.store(key, spec, SCALE, record)  # the later success supersedes
        collected = store.gc()
        assert collected.superseded_failures == 1
        assert store.failure_for(key) is None

    def test_gc_sweeps_orphans_in_fallback_and_traces(
        self, store, tmp_path, executed
    ):
        """Dangling ``<key>.jsonl`` traces go; a live key's trace stays.
        (The store no longer has a fallback cache root to sweep.)"""
        spec, record = executed
        store.store(spec.content_key(SCALE), spec, SCALE, record)
        traces = tmp_path / "traces"
        traces.mkdir()
        (traces / f"{spec.content_key(SCALE)}.jsonl").write_text("{}\n")
        (traces / ("f" * 64 + ".jsonl")).write_text("{}\n")
        collected = store.gc(trace_dirs=[traces])
        assert collected.dangling_traces == 1  # the live key's trace stays
        assert (traces / f"{spec.content_key(SCALE)}.jsonl").exists()
        assert not (traces / ("f" * 64 + ".jsonl")).exists()

    def test_gc_leaves_user_files_in_trace_dirs(self, store, tmp_path):
        """Only top-level ``<64-hex key>.jsonl`` files are engine traces;
        anything else a trace directory holds belongs to the user."""
        traces = tmp_path / "traces"
        (traces / "sub").mkdir(parents=True)
        (traces / "empty").mkdir()
        user_files = [
            traces / "my-experiment.jsonl",
            traces / "sub" / "notes.jsonl",
            traces / "sub" / ("a" * 64 + ".jsonl"),
            traces / ("b" * 63 + ".jsonl"),
            traces / "scratch.tmp",
        ]
        for path in user_files:
            path.write_text("{}\n")
        assert store.gc(trace_dirs=[traces]).dangling_traces == 0
        assert all(path.exists() for path in user_files)
        assert (traces / "empty").is_dir()


class TestCampaigns:
    def test_begin_is_idempotent_and_derives_status(self, store, runner):
        specs = [make_spec(seed) for seed in range(4)]
        status = store.begin_campaign("c-1", specs, SCALE, app="fft")
        assert status.total == 4
        assert status.pending == (0, 1, 2, 3)
        store.store(
            specs[1].content_key(SCALE), specs[1], SCALE,
            runner.execute_spec(specs[1]),
        )
        again = store.begin_campaign("c-1", specs, SCALE)
        assert again.done == frozenset({1})
        assert again.pending == (0, 2, 3)
        assert "1/4 done" in again.summary()

    def test_begin_rejects_grid_mismatch(self, store):
        store.begin_campaign("c-1", [make_spec(0)], SCALE)
        with pytest.raises(ValueError, match="different grid"):
            store.begin_campaign("c-1", [make_spec(1)], SCALE)
        with pytest.raises(ValueError, match="different grid"):
            store.begin_campaign("c-1", [make_spec(0)], SCALE * 2)

    def test_concurrent_beginners_serialize(self, tmp_path):
        """Two processes' worth of beginners racing the same new campaign
        must both succeed: the check-and-insert is one immediate
        transaction, so the loser lands on the verification path instead
        of an IntegrityError."""
        path = tmp_path / "race.sqlite"
        specs = [make_spec(seed) for seed in range(3)]
        barrier = threading.Barrier(4)
        errors: list = []

        def begin():
            try:
                local = RunStore(path, fallback=False)
                barrier.wait()
                local.begin_campaign("c-race", specs, SCALE, app="fft")
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=begin) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        status = RunStore(path, fallback=False).campaign("c-race")
        assert status.total == 3
        assert status.pending == (0, 1, 2)

    def test_unknown_campaign_names_known_ids(self, store):
        store.begin_campaign("c-known", [make_spec(0)], SCALE)
        with pytest.raises(ValueError, match="c-known"):
            store.campaign("c-missing")

    def test_failed_positions_derived_from_failures(self, store):
        specs = [make_spec(seed) for seed in range(2)]
        store.begin_campaign("c-f", specs, SCALE)
        store.record_failure(
            FailureRecord(
                index=0, spec=specs[0], failure="crash",
                message="died", attempts=2,
            ),
            campaign="c-f",
            scale=SCALE,
        )
        status = store.campaign("c-f")
        assert status.failed == frozenset({0})
        assert status.pending == (1,)

    def test_derive_campaign_id_is_deterministic(self):
        grid = [make_spec(seed) for seed in range(3)]
        assert derive_campaign_id(grid, SCALE) == derive_campaign_id(grid, SCALE)
        assert derive_campaign_id(grid, SCALE) != derive_campaign_id(grid, 0.1)
        assert derive_campaign_id(grid, SCALE) != derive_campaign_id(
            grid[::-1], SCALE
        )
        assert derive_campaign_id(grid, SCALE).startswith("c-")


class TestQueryAndStats:
    def test_query_filters_and_limit(self, store, runner):
        for seed in range(3):
            spec = make_spec(seed)
            store.store(
                spec.content_key(SCALE), spec, SCALE, runner.execute_spec(spec)
            )
        assert len(store.query(app="fft")) == 3
        assert len(store.query(app="jpeg")) == 0
        assert len(store.query(seed=1)) == 1
        assert len(store.query(limit=2)) == 2
        seeds = [row.spec.seed for row in store.query()]
        assert seeds == sorted(seeds)

    def test_stats_counts(self, store, executed):
        spec, record = executed
        store.store(spec.content_key(SCALE), spec, SCALE, record)
        store.begin_campaign("c-s", [spec], SCALE)
        stats = store.stats()
        assert stats.runs == 1
        assert stats.campaigns == 1
        assert stats.by_app == {"fft": 1}
        assert stats.size_bytes > 0


class TestEngineIntegration:
    def test_runner_writes_and_rereads_store(self, tmp_path):
        specs = [make_spec(seed) for seed in range(3)]
        path = tmp_path / "store.sqlite"
        first = ParallelRunner(scale=SCALE, jobs=1, store=RunStore(path, fallback=False))
        records = first.run_specs(specs)
        assert first.last_stats.executed == 3
        second = ParallelRunner(scale=SCALE, jobs=1, store=RunStore(path, fallback=False))
        again = second.run_specs(specs)
        assert second.last_stats.cache_hits == 3
        assert again == records

    def test_attach_store_sets_store_and_campaign(self, store):
        engine = ParallelRunner(scale=SCALE, jobs=1)
        assert engine.store is None
        engine.attach_store(store, campaign="c-attached")
        assert engine.store is store
        assert engine.campaign == "c-attached"
        engine.run_specs([make_spec(0)])
        assert store.campaign("c-attached").done == frozenset({0})

    def test_wall_seconds_provenance_is_per_run(self, tmp_path):
        """Each row's wall_seconds is that run's own elapsed time, not
        the sweep's cumulative clock — so for a serial sweep the per-row
        times sum to at most the sweep total."""
        path = tmp_path / "store.sqlite"
        engine = ParallelRunner(
            scale=SCALE, jobs=1, store=RunStore(path, fallback=False)
        )
        engine.run_specs([make_spec(seed) for seed in range(4)])
        walls = [
            row.provenance["wall_seconds"]
            for row in RunStore(path, fallback=False).query()
        ]
        assert len(walls) == 4
        assert all(wall >= 0 for wall in walls)
        assert sum(walls) <= engine.last_stats.wall_seconds + 0.005

    def test_run_error_model_override_bypasses_store(self, tmp_path):
        from repro.api import EngineOptions, run
        from repro.machine.errors import ErrorModel

        store = RunStore(tmp_path / "store.sqlite", fallback=False)
        options = EngineOptions(scale=SCALE, store=store)
        baseline = run("fft", mtbe=100_000.0, seed=0, options=options)
        key = baseline.spec.content_key(SCALE)
        assert store.load(key) == baseline.record
        assert len(store) == 1
        overridden = run(
            "fft", mtbe=100_000.0, seed=0,
            error_model=ErrorModel(mtbe=1_000.0),
            options=options,
        )
        # Executed (not served from the store: a hit carries result=None)
        # and the baseline row was not overwritten or duplicated.
        assert overridden.result is not None
        assert len(store) == 1
        assert store.load(key) == baseline.record


class TestConcurrentWriters:
    """Two engines over one store database must behave like one serial
    engine: same rows, no ``database is locked`` failures."""

    def _run_grid(self, path, specs, errors):
        try:
            engine = ParallelRunner(
                scale=SCALE, jobs=1, store=RunStore(path, fallback=False)
            )
            engine.run_specs(specs)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    def _rows(self, path):
        store = RunStore(path, fallback=False)
        return {
            row.key: (row.spec, row.record) for row in store.query()
        }

    def test_concurrent_fresh_opens_succeed(self, tmp_path):
        """Opening one fresh database from several threads at once must
        not fail with ``database is locked``: the WAL switch is retried
        instead of refused."""
        errors: list = []
        for attempt in range(20):
            path = tmp_path / f"fresh{attempt}.sqlite"
            barrier = threading.Barrier(4)

            def open_store():
                try:
                    barrier.wait()
                    RunStore(path).close()
                except Exception as exc:  # pragma: no cover - failure reporting
                    errors.append(exc)

            threads = [threading.Thread(target=open_store) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert errors == []

    @pytest.mark.parametrize("overlap", [True, False], ids=["overlapping", "disjoint"])
    def test_concurrent_runners_match_serial(self, tmp_path, overlap):
        all_specs = [make_spec(seed) for seed in range(8)]
        if overlap:
            grids = (all_specs[:6], all_specs[2:])
        else:
            grids = (all_specs[:4], all_specs[4:])

        concurrent_path = tmp_path / "concurrent.sqlite"
        errors: list = []
        threads = [
            threading.Thread(target=self._run_grid, args=(concurrent_path, grid, errors))
            for grid in grids
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

        serial_path = tmp_path / "serial.sqlite"
        serial = ParallelRunner(
            scale=SCALE, jobs=1, store=RunStore(serial_path, fallback=False)
        )
        serial.run_specs(all_specs)

        assert self._rows(concurrent_path) == self._rows(serial_path)
