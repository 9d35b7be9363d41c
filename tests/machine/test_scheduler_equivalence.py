"""Run-loop equivalence suite: the event-driven ready-set scheduler and the
legacy round-robin loop must be interchangeable — same ``RunResult``, same
trace bytes — whichever transfer path the exec mode selects.

``exec_mode`` picks both the run loop and the transfer path, and
``tests/machine/test_exec_mode_equivalence.py`` checks the two modes as
wholes.  This suite holds the transfer path fixed and swaps only the loop,
so a divergence is pinned on the scheduler rather than on batched
transfers or quiet spans.

Also covers the wake-ordering compatibility shim directly (``WakeHub``
position routing) and a Hypothesis property test for the ForcedUnblock
path, whose sweep numbering and thread ordering is the subtlest part of
the virtual-sweep accounting.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import build_app
from repro.machine import system as system_module
from repro.machine.protection import ProtectionLevel
from repro.machine.scheduler import EventScheduler, LegacyScheduler, WakeHub
from repro.machine.system import SystemConfig, run_program
from repro.observability import InMemoryTracer, JsonlTracer
from repro.observability.events import ForcedUnblock
from tests.machine.test_exec_mode_equivalence import result_snapshot

PRECISE = SystemConfig(exec_mode="precise")
FAST = SystemConfig()  # exec_mode="fast" is the default

#: The reference: the precise oracle on its own (legacy) loop.  Each
#: variant runs one exec mode's transfers on the other mode's loop.
REFERENCE = (PRECISE, LegacyScheduler)
VARIANTS = ((PRECISE, EventScheduler), (FAST, LegacyScheduler))


def run_on_loop(loop, config, app_name, protection, mtbe, seed, scale=0.25, **kw):
    """``run_program`` with ``loop`` as the run loop, whatever loop
    ``config.exec_mode`` would pick."""
    ran = []

    class Loop(loop):
        def run(self, *args):
            ran.append(loop)
            return super().run(*args)

    app = build_app(app_name, scale=scale)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(system_module, "LegacyScheduler", Loop)
        patch.setattr(system_module, "EventScheduler", Loop)
        result = run_program(
            app.program, protection, mtbe=mtbe, seed=seed, system_config=config, **kw
        )
    assert ran == [loop], "the swapped-in run loop did not run"
    return result


def run_snapshot(variant, app_name, protection, mtbe, seed):
    config, loop = variant
    return result_snapshot(run_on_loop(loop, config, app_name, protection, mtbe, seed))


def describe(variant):
    config, loop = variant
    return f"exec_mode={config.exec_mode} on {loop.__name__}"


def grid_points():
    """The equivalence grid: every protection level, two MTBEs, two seeds,
    over apps that exercise both the guarded and the raw queue paths."""
    points = []
    for app_name in ("jpeg", "mp3", "fft"):
        for protection in ProtectionLevel:
            mtbes = (
                (None,)
                if protection is ProtectionLevel.ERROR_FREE
                else (10_000.0, 64_000.0)
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
        reference = run_snapshot(REFERENCE, app_name, protection, mtbe, seed)
        for variant in VARIANTS:
            assert (
                run_snapshot(variant, app_name, protection, mtbe, seed) == reference
            ), describe(variant)

    def test_timeout_heavy_run_matches(self):
        # mp3 under PPU_ONLY at high MTBE is the stuck-sweep regime: long
        # stretches of unproductive sweeps, spins and hundreds of forced
        # unblocks — the exact path the ready-set re-expression changes.
        args = ("mp3", ProtectionLevel.PPU_ONLY, 64_000.0, 0)
        reference = run_snapshot(REFERENCE, *args)
        assert reference[6] > 0, "expected forced unblocks in this regime"
        for variant in VARIANTS:
            assert run_snapshot(variant, *args) == reference, describe(variant)


class TestByteIdenticalTraces:
    @pytest.mark.parametrize("app_name", ["jpeg", "mp3"])
    @pytest.mark.parametrize(
        "protection", list(ProtectionLevel), ids=lambda level: level.name
    )
    def test_trace_bytes_scheduler_invariant(self, app_name, protection):
        mtbe = None if protection is ProtectionLevel.ERROR_FREE else 10_000.0

        def trace_bytes(variant):
            config, loop = variant
            buffer = io.StringIO()
            run_on_loop(
                loop,
                config,
                app_name,
                protection,
                mtbe,
                1,
                tracer=JsonlTracer(buffer),
            )
            return buffer.getvalue()

        reference = trace_bytes(REFERENCE)
        for variant in VARIANTS:
            assert trace_bytes(variant) == reference, describe(variant)


class TestWakeOrderingProperty:
    """ForcedUnblock events carry (thread, sweep); the event loop must
    reproduce the round-robin sequence exactly — same threads, same order,
    same sweep numbers — for arbitrary error-rate/seed combinations."""

    @settings(max_examples=15, deadline=None)
    @given(
        mtbe=st.sampled_from([8_000.0, 16_000.0, 64_000.0, 128_000.0]),
        seed=st.integers(min_value=0, max_value=50),
        protection=st.sampled_from(
            [ProtectionLevel.PPU_ONLY, ProtectionLevel.PPU_RELIABLE_QUEUE]
        ),
    )
    def test_forced_unblock_sequence_identical(self, mtbe, seed, protection):
        def forced_unblocks(config):
            tracer = InMemoryTracer()
            app = build_app("mp3", scale=0.2)
            result = run_program(
                app.program,
                protection,
                mtbe=mtbe,
                seed=seed,
                system_config=config,
                tracer=tracer,
            )
            events = [
                (event.thread, event.sweep)
                for event in tracer.events
                if isinstance(event, ForcedUnblock)
            ]
            return events, result.sweeps, result.forced_unblocks

        assert forced_unblocks(FAST) == forced_unblocks(PRECISE)


class TestWakeHub:
    def test_wake_after_position_lands_in_current_sweep(self):
        hub = WakeHub(4)
        hub.ready_now = [False] * 4
        hub.producer_of[7] = 3
        hub.consumer_of[7] = 1
        hub.position = 1
        hub.on_pop(7)  # producer (3) sits after the stepping position
        assert hub.ready_now[3] and not hub.ready_next[3]

    def test_wake_at_or_before_position_lands_in_next_sweep(self):
        hub = WakeHub(4)
        hub.ready_now = [False] * 4
        hub.producer_of[7] = 0
        hub.consumer_of[7] = 2
        hub.position = 2
        hub.on_push(7)  # consumer (2) == position: already stepped
        hub.on_pop(7)  # producer (0) < position: already stepped
        assert not hub.ready_now[2] and hub.ready_next[2]
        assert not hub.ready_now[0] and hub.ready_next[0]

    def test_corrupt_wakes_both_endpoints(self):
        hub = WakeHub(3)
        hub.ready_now = [False] * 3
        hub.producer_of[0] = 0
        hub.consumer_of[0] = 2
        hub.position = 1
        hub.on_corrupt(0)
        assert hub.ready_now[2]  # after position: this sweep
        assert hub.ready_next[0]  # before position: next sweep

    def test_unknown_qid_is_ignored(self):
        hub = WakeHub(2)
        hub.on_push(99)
        hub.on_pop(99)
        hub.on_corrupt(99)
        assert hub.ready_next == [False, False]
