"""Alignment tracing on the event bus: the AM's ``AlignmentAction`` events."""

from repro.core.alignment_manager import AlignmentManager
from repro.core.header import END_OF_COMPUTATION, header_unit, item_unit
from repro.core.queue_manager import GuardedQueue, QueueGeometry
from repro.core.stats import CommGuardStats
from repro.machine.errors import ErrorModel
from repro.machine.protection import ProtectionLevel
from repro.machine.system import MulticoreSystem
from repro.observability.events import AlignmentAction
from repro.observability.tracer import InMemoryTracer
from repro.streamit.builders import pipeline
from repro.streamit.filters import Identity, IntSink, IntSource
from repro.streamit.program import StreamProgram


def make_am_with_trace():
    stats = CommGuardStats()
    queue = GuardedQueue(0, QueueGeometry(1, 1024))
    am = AlignmentManager(queue, stats)
    tracer = InMemoryTracer()
    am.tracer = tracer
    am.thread = "consumer"
    return am, queue, tracer


def actions(tracer):
    return tracer.of_kind(AlignmentAction.kind)


def feed(queue, units):
    stats = CommGuardStats()
    for unit in units:
        queue.push_unit(unit, stats)
    queue.flush(stats)


class TestRecorder:
    def test_aligned_run_emits_no_actions(self):
        am, queue, tracer = make_am_with_trace()
        feed(queue, [header_unit(0), item_unit(1), item_unit(2)])
        am.on_new_frame_computation(0)
        am.pop(0)
        am.pop(0)
        assert tracer.events == []

    def test_lost_data_traces_pad_with_frame(self):
        am, queue, tracer = make_am_with_trace()
        feed(queue, [header_unit(0), item_unit(1), header_unit(1), item_unit(2), item_unit(3)])
        am.on_new_frame_computation(0)
        am.pop(0)
        am.pop(0)  # meets header 1: pad
        (pad,) = actions(tracer)
        assert pad.action == "pad"
        assert (pad.thread, pad.qid, pad.active_fc) == ("consumer", 0, 0)
        assert "future header 1" in pad.reason

    def test_extra_items_trace_discards(self):
        am, queue, tracer = make_am_with_trace()
        feed(queue, [header_unit(0), item_unit(1), item_unit(99), header_unit(1), item_unit(2)])
        am.on_new_frame_computation(0)
        am.pop(0)
        am.on_new_frame_computation(1)
        am.pop(1)
        (discard,) = actions(tracer)
        assert discard.action == "discard-item"
        assert discard.active_fc == 1

    def test_eoc_traced(self):
        am, queue, tracer = make_am_with_trace()
        feed(queue, [header_unit(END_OF_COMPUTATION)])
        am.on_new_frame_computation(0)
        am.pop(0)
        (pad,) = actions(tracer)
        assert pad.action == "pad"
        assert pad.reason == "producer end-of-computation"


class TestSystemTracer:
    def test_alignment_actions_agree_with_stats(self):
        graph = pipeline(
            [
                IntSource("src", list(range(256)), rate=1),
                Identity("mid"),
                IntSink("snk"),
            ]
        )
        program = StreamProgram.compile(graph)
        model = ErrorModel(
            mtbe=2_000, p_masked=0.0, p_data=0.0, p_control=1.0, p_address=0.0
        )
        tracer = InMemoryTracer()
        system = MulticoreSystem.build(
            program,
            ProtectionLevel.COMMGUARD,
            error_model=model,
            seed=1,
            tracer=tracer,
        )
        system.run()
        events = actions(tracer)
        assert {e.thread for e in events} <= {"mid", "snk"}
        counters = [system.cores[c].threads[0].counters.commguard for c in range(3)]
        pads = [e for e in events if e.action == "pad"]
        discarded = [e for e in events if e.action == "discard-item"]
        # One event per padded word and per drained item.
        assert len(pads) == sum(c.pads for c in counters)
        assert len(discarded) == sum(c.discarded_items for c in counters)
        assert pads or discarded  # the control errors forced realignment
