"""The 1.x spellings removed in 2.0 and the 2.x ones removed in 3.0 fail
loudly; their replacements run without warnings."""

import importlib
import warnings

import pytest

from repro import api
from repro.cli import main
from repro.experiments.options import EngineOptions
from repro.experiments.parallel import ParallelRunner, RunSpec
from repro.experiments.runner import SimulationRunner
from repro.experiments.store import RunStore
from repro.machine.system import SystemConfig

SCALE = 0.05


@pytest.fixture(scope="module")
def runner():
    return SimulationRunner(scale=SCALE)


class TestShims:
    @pytest.mark.parametrize("name", ["execute", "record", "_run_via_api"])
    def test_runner_shim_is_gone(self, runner, name):
        with pytest.raises(AttributeError):
            getattr(runner, name)

    @pytest.mark.parametrize(
        "module,name",
        [
            ("repro.api", "_UNSET"),
            ("repro.machine.scheduler", "resolve_scheduler"),
            ("repro.machine.scheduler", "_SCHEDULERS"),
        ],
    )
    def test_module_shim_is_gone(self, module, name):
        with pytest.raises(AttributeError):
            getattr(importlib.import_module(module), name)

    @pytest.mark.parametrize("name", ["scheduler", "batch_ops"])
    def test_system_config_rejects_loop_knobs(self, name):
        with pytest.raises(TypeError, match=name):
            SystemConfig(**{name: None})


class TestRemovedIn30:
    """The flat result cache is gone: RunStore is the only persistence."""

    def test_result_cache_import_fails(self):
        with pytest.raises(ImportError):
            from repro.experiments.cache import ResultCache  # noqa: F401
        with pytest.raises(ImportError):
            from repro.experiments import ResultCache  # noqa: F401,F811

    def test_parallel_runner_rejects_cache(self, tmp_path):
        with pytest.raises(TypeError, match="cache"):
            ParallelRunner(cache=tmp_path / "cache")

    @pytest.mark.parametrize("fallback", [True, ".repro_cache"])
    def test_store_rejects_legacy_fallback(self, tmp_path, fallback):
        with pytest.raises(ValueError, match="repro store import"):
            RunStore(tmp_path / "store.sqlite", fallback=fallback)

    def test_store_get_is_gone(self):
        assert not hasattr(RunStore, "get")  # RunStore.load is the lookup

    @pytest.mark.parametrize("fallback", [False, None])
    def test_store_accepts_disabled_fallback(self, tmp_path, fallback):
        assert len(RunStore(tmp_path / "store.sqlite", fallback=fallback)) == 0

    def test_cache_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "info"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestApiRunAliases:
    @pytest.mark.parametrize("name,value", [("scale", SCALE), ("trace", True)])
    def test_loose_engine_kwarg_is_rejected(self, name, value):
        with pytest.raises(TypeError, match=name):
            api.run("fft", "commguard", mtbe=100_000, seed=0, **{name: value})


class TestApiSweepAliases:
    @pytest.mark.parametrize(
        "name,value",
        [
            ("scale", SCALE),
            ("jobs", 1),
            ("cache", False),
            ("no_cache", True),
            ("trace_dir", "traces"),
            ("retries", 1),
            ("run_timeout", 10.0),
            ("retry_backoff", 0.1),
            ("keep_going", True),
            ("store", True),
        ],
    )
    def test_loose_engine_kwarg_is_rejected(self, name, value):
        with pytest.raises(TypeError, match=name):
            api.sweep("fft", mtbes=100_000, seeds=1, **{name: value})

    def test_options_spelling_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            api.sweep("fft", mtbes=100_000, seeds=1,
                      options=EngineOptions(scale=SCALE, cache=None, jobs=1))


class TestNewEntryPoints:
    def test_spec_paths_do_not_warn(self, runner):
        spec = RunSpec(app="fft", mtbe=100_000, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runner.run_spec(spec)
            runner.execute_spec(spec)

    def test_api_run_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            api.run("fft", "commguard", mtbe=100_000, seed=0,
                    options=EngineOptions(scale=SCALE))

    def test_run_matches_spec_path(self, runner):
        fresh = runner.execute_spec(RunSpec(app="fft", mtbe=100_000, seed=0))
        report = api.run("fft", "commguard", mtbe=100_000, seed=0,
                         options=EngineOptions(scale=SCALE))
        assert report.record == fresh
