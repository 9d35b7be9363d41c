"""Exec-mode equivalence suite: the fast path must be bit-identical to the
precise oracle — same ``RunResult``, same cache keys, byte-identical trace
bytes — across the app × protection × MTBE × seed grid and across every
registered fault model.

This is the determinism contract that makes ``exec_mode`` a pure
performance knob.  ``SystemConfig(exec_mode="fast")`` (the default) runs
the event-driven ready-set scheduler, moves the queue words of a firing
that cannot block in bulk, and executes whole steady-state firings in bulk
inside error-quiet spans.  ``exec_mode="precise"`` is the single reference:
the legacy round-robin loop, word by word, unconditionally.  Every
observable of a fast run must match it.

``tests/machine/test_scheduler_equivalence.py`` holds the transfer path
fixed and swaps only the run loop, and covers the wake-ordering shim and
the ForcedUnblock sequence.
"""

import dataclasses
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import build_app
from repro.core.config import CommGuardConfig
from repro.core.guard import CommGuard
from repro.core.queue_manager import QueueGeometry
from repro.experiments.cache import spec_key
from repro.experiments.parallel import RunSpec
from repro.machine.errors import ErrorInjector, ErrorModel
from repro.machine.protection import ProtectionLevel
from repro.machine.scheduler import EventScheduler, LegacyScheduler
from repro.machine.system import MulticoreSystem, SystemConfig, run_program
from repro.observability import JsonlTracer

PRECISE = SystemConfig(exec_mode="precise")
FAST = SystemConfig()  # exec_mode="fast" is the default

#: The media apps and fft run the grid at quarter scale; the three DSP
#: apps cross a frame boundary on nearly every firing, so a tenth of their
#: input already exercises every CommGuard path.
DSP_APPS = ("complex-fir", "channelvocoder", "audiobeamformer")
GRID_SCALE = {"jpeg": 0.25, "mp3": 0.25, "fft": 0.25} | dict.fromkeys(DSP_APPS, 0.1)


def result_snapshot(result):
    """Every observable field of a RunResult, in comparable form."""
    return (
        result.outputs,
        {
            name: dataclasses.asdict(counters)
            for name, counters in result.thread_counters.items()
        },
        result.errors_by_kind,
        result.errors_injected,
        result.sweeps,
        result.hung,
        result.forced_unblocks,
        result.queue_peaks,
    )


def run_snapshot(config, app_name, protection, mtbe, seed, scale=0.25, **kw):
    app = build_app(app_name, scale=scale)
    result = run_program(
        app.program, protection, mtbe=mtbe, seed=seed, system_config=config, **kw
    )
    return result_snapshot(result)


def grid_points():
    """Every protection level at a dense-error, a stuck-sweep-prone and a
    quiet-span-heavy MTBE, two seeds, over all six apps (guarded and raw
    queue paths)."""
    points = []
    for app_name in GRID_SCALE:
        for protection in ProtectionLevel:
            mtbes = (
                (None,)
                if protection is ProtectionLevel.ERROR_FREE
                else (10_000.0, 64_000.0, 1_024_000.0)
            )
            for mtbe in mtbes:
                for seed in (0, 1):
                    points.append((app_name, protection, mtbe, seed))
    return points


class TestBitIdenticalResults:
    @pytest.mark.parametrize(
        "app_name,protection,mtbe,seed",
        grid_points(),
        ids=lambda value: getattr(value, "name", str(value)),
    )
    def test_grid_point(self, app_name, protection, mtbe, seed):
        scale = GRID_SCALE[app_name]
        assert run_snapshot(
            FAST, app_name, protection, mtbe, seed, scale=scale
        ) == run_snapshot(PRECISE, app_name, protection, mtbe, seed, scale=scale)

    def test_timeout_heavy_run_matches(self):
        # mp3 under PPU_ONLY at 64k is the stuck-sweep regime: long
        # stretches of unproductive sweeps, spins and hundreds of forced
        # unblocks.  The fast path must bail out to per-word mode around
        # every misalignment and the event loop must reproduce the
        # round-robin forced-unblock bookkeeping exactly.
        reference = run_snapshot(
            PRECISE, "mp3", ProtectionLevel.PPU_ONLY, 64_000.0, 0
        )
        assert reference[6] > 0, "expected forced unblocks in this regime"
        assert (
            run_snapshot(FAST, "mp3", ProtectionLevel.PPU_ONLY, 64_000.0, 0)
            == reference
        )


class TestFaultModels:
    """Every registered error process — including sticky, whose stuck
    registers re-corrupt values between arrivals — must agree."""

    MODELS = ["bit_flip", "burst", "control_flow", "queue_state",
              "sticky", "sticky:dwell=200000"]

    @pytest.mark.parametrize("fault_model", MODELS)
    @pytest.mark.parametrize("mtbe", [50_000.0, 1_024_000.0])
    def test_model_matches_precise(self, fault_model, mtbe):
        kw = dict(fault_model=fault_model)
        reference = run_snapshot(
            PRECISE, "mp3", ProtectionLevel.COMMGUARD, mtbe, 1, scale=0.2, **kw
        )
        assert (
            run_snapshot(
                FAST, "mp3", ProtectionLevel.COMMGUARD, mtbe, 1, scale=0.2, **kw
            )
            == reference
        )

    @pytest.mark.parametrize("fault_model", MODELS)
    @pytest.mark.parametrize("app_name", DSP_APPS)
    def test_dsp_model_matches_precise(self, app_name, fault_model):
        kw = dict(fault_model=fault_model, scale=0.05)
        reference = run_snapshot(
            PRECISE, app_name, ProtectionLevel.COMMGUARD, 50_000.0, 1, **kw
        )
        assert (
            run_snapshot(FAST, app_name, ProtectionLevel.COMMGUARD, 50_000.0, 1, **kw)
            == reference
        )


class TestCommGuardConfigs:
    """The frame-crossing fast path (bulk expected-header pops, the per-run
    header codebook) under non-default CommGuard geometry and frame
    definitions, on the DSP apps where every firing crosses a frame."""

    POINTS = [(app, mtbe) for app in DSP_APPS for mtbe in (64_000.0, 1_024_000.0)]

    @pytest.mark.parametrize("app_name,mtbe", POINTS)
    def test_frame_scale_two(self, app_name, mtbe):
        kw = dict(scale=0.1, commguard_config=CommGuardConfig(frame_scale=2))
        assert run_snapshot(
            FAST, app_name, ProtectionLevel.COMMGUARD, mtbe, 1, **kw
        ) == run_snapshot(PRECISE, app_name, ProtectionLevel.COMMGUARD, mtbe, 1, **kw)

    @pytest.mark.parametrize("app_name,mtbe", POINTS)
    def test_workset_of_one_unit(self, app_name, mtbe):
        kw = dict(scale=0.1, commguard_config=CommGuardConfig(workset_units=1))
        assert run_snapshot(
            FAST, app_name, ProtectionLevel.COMMGUARD, mtbe, 1, **kw
        ) == run_snapshot(PRECISE, app_name, ProtectionLevel.COMMGUARD, mtbe, 1, **kw)

    @pytest.mark.parametrize("app_name,mtbe", POINTS)
    def test_per_edge_frame_scales(self, app_name, mtbe):
        domains = []

        def snapshot(config):
            app = build_app(app_name, scale=0.1)
            scales = {
                edge.qid: 2 for edge in app.program.graph.edges if edge.qid % 2
            }
            system = MulticoreSystem.build(
                app.program,
                ProtectionLevel.COMMGUARD,
                error_model=ErrorModel(mtbe=mtbe),
                seed=1,
                system_config=config,
                edge_frame_scales=scales,
            )
            domains.extend(
                len(thread.comm.guard._domains_by_scale)
                for core in system.cores
                for thread in core.threads
            )
            return result_snapshot(system.run())

        assert snapshot(FAST) == snapshot(PRECISE)
        # Some thread rolls over two frame domains at different rates.
        assert max(domains) > 1

    @pytest.mark.parametrize("app_name,mtbe", POINTS)
    def test_tight_geometry_blocks_header_insertion(
        self, monkeypatch, app_name, mtbe
    ):
        """Queues one frame deep: the producer's next header often finds
        its queue full at rollover, so the HI worklist outlives the
        rollover's drain attempt."""

        def tight(push_rate, pop_rate, items_per_frame, workset_units=256):
            return QueueGeometry(
                workset_units=2,
                capacity_units=items_per_frame + max(push_rate, pop_rate) + 1,
            )

        monkeypatch.setattr("repro.machine.system.plan_geometry", tight)
        drains = []
        original = CommGuard.advance_header_insertions

        def recording(self):
            drains.append(original(self))
            return drains[-1]

        monkeypatch.setattr(CommGuard, "advance_header_insertions", recording)
        fast = run_snapshot(
            FAST, app_name, ProtectionLevel.COMMGUARD, mtbe, 1, scale=0.1
        )
        assert not all(drains)
        assert fast == run_snapshot(
            PRECISE, app_name, ProtectionLevel.COMMGUARD, mtbe, 1, scale=0.1
        )


def trace_points():
    """Every protection level at a dense and a sparse MTBE (error-free once)."""
    return [
        (protection, mtbe)
        for protection in ProtectionLevel
        for mtbe in (
            (None,)
            if protection is ProtectionLevel.ERROR_FREE
            else (10_000.0, 100_000.0)
        )
    ]


class TestByteIdenticalTraces:
    @pytest.mark.parametrize("app_name", ["jpeg", "mp3", "channelvocoder"])
    @pytest.mark.parametrize(
        "protection,mtbe",
        trace_points(),
        ids=lambda value: getattr(value, "name", str(value)),
    )
    def test_trace_bytes_exec_mode_invariant(self, app_name, protection, mtbe):
        def trace_bytes(config):
            buffer = io.StringIO()
            app = build_app(app_name, scale=GRID_SCALE[app_name])
            run_program(
                app.program,
                protection,
                mtbe=mtbe,
                seed=1,
                system_config=config,
                tracer=JsonlTracer(buffer),
            )
            return buffer.getvalue()

        assert trace_bytes(FAST) == trace_bytes(PRECISE)


class TestExecModeProperty:
    """Arbitrary rate/seed/protection combinations agree — the fast path
    must drop to precise mode around every injected error, wherever the
    arrival lands inside a firing."""

    @settings(max_examples=12, deadline=None)
    @given(
        mtbe=st.sampled_from([8_000.0, 64_000.0, 256_000.0, 2_048_000.0]),
        seed=st.integers(min_value=0, max_value=50),
        protection=st.sampled_from(
            [ProtectionLevel.COMMGUARD, ProtectionLevel.PPU_RELIABLE_QUEUE]
        ),
    )
    def test_fast_equals_precise(self, mtbe, seed, protection):
        assert run_snapshot(
            FAST, "mp3", protection, mtbe, seed, scale=0.2
        ) == run_snapshot(PRECISE, "mp3", protection, mtbe, seed, scale=0.2)


class TestSharedCacheKeys:
    """fast and precise runs are interchangeable, so they share one cache
    entry — and specs predating the ``exec_mode`` field keep their keys."""

    def test_modes_share_cache_key(self):
        fast = RunSpec(app="fft", mtbe=100_000.0, seed=3, exec_mode="fast")
        precise = RunSpec(app="fft", mtbe=100_000.0, seed=3, exec_mode="precise")
        default = RunSpec(app="fft", mtbe=100_000.0, seed=3)
        keys = {spec_key(s, 0.1) for s in (fast, precise, default)}
        assert len(keys) == 1


class TestRunLoopSelection:
    """``exec_mode`` is the only loop knob: it picks the run loop."""

    @pytest.mark.parametrize(
        "config,loop",
        [(PRECISE, LegacyScheduler), (FAST, EventScheduler)],
        ids=["precise", "default-fast"],
    )
    def test_exec_mode_selects_the_run_loop(self, monkeypatch, config, loop):
        used = []
        for cls in (LegacyScheduler, EventScheduler):
            original = cls.run

            def recording_run(self, *args, _original=original):
                used.append(type(self))
                return _original(self, *args)

            monkeypatch.setattr(cls, "run", recording_run)
        app = build_app("fft", scale=0.1)
        run_program(
            app.program,
            ProtectionLevel.COMMGUARD,
            mtbe=100_000.0,
            system_config=config,
        )
        assert used == [loop]


class TestQuietSpanContract:
    """The injector-side primitives the fast path is built on."""

    def test_quiet_for_is_strict_about_the_horizon(self):
        injector = ErrorInjector(ErrorModel(mtbe=1000.0), seed=0, core_id=0)
        countdown = injector._countdown
        assert countdown is not None
        assert injector.quiet_for(int(countdown) - 1)
        assert not injector.quiet_for(int(countdown) + 1)

    def test_error_free_injector_is_always_quiet(self):
        injector = ErrorInjector(ErrorModel(mtbe=None), seed=0, core_id=0)
        assert injector.quiet_for(10**9)

    def test_consume_quiet_matches_advance_arithmetic(self):
        a = ErrorInjector(ErrorModel(mtbe=50_000.0), seed=7, core_id=0)
        b = ErrorInjector(ErrorModel(mtbe=50_000.0), seed=7, core_id=0)
        n = 1000
        assert a.quiet_for(n)
        a.consume_quiet(n)
        b.advance(n)
        assert a.clock == b.clock
        assert a._countdown == b._countdown

    def test_opt_out_models_never_certify_quiet(self):
        class CustomInjector(ErrorInjector):
            supports_quiet_span = False

        injector = CustomInjector(ErrorModel(mtbe=None), seed=0, core_id=0)
        assert not injector.quiet_for(1)

    def test_invalid_exec_mode_names_choices(self):
        app = build_app("fft", scale=0.1)
        with pytest.raises(ValueError, match="'fast', 'precise'"):
            run_program(
                app.program,
                ProtectionLevel.COMMGUARD,
                system_config=SystemConfig(exec_mode="turbo"),
            )
