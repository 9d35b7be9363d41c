"""Bulk queue operations must be observably identical to per-word loops.

These are the batched transfers of ``exec_mode="fast"``; each test runs
the same word sequence through the per-word reference API and the bulk API
and compares every observable: returned words, queue state, stats charges,
peaks, and the tracer fallback contract.
"""

import random

from repro.core.header import header_unit, item_unit
from repro.core.queue_manager import GuardedQueue, QueueGeometry
from repro.core.stats import CommGuardStats
from repro.machine.queues import ReliableQueue, SoftwareQueue
from repro.observability import InMemoryTracer


class TestReliableQueueBulk:
    def test_push_many_matches_push_loop(self):
        reference, bulk = ReliableQueue(16), ReliableQueue(16)
        words = list(range(10))
        for word in words:
            assert reference.push(word)
        assert bulk.push_many(words, 0) == 10
        assert bulk.occupancy() == reference.occupancy() == 10
        assert bulk.peak_occupancy == reference.peak_occupancy == 10
        assert [bulk.pop() for _ in range(10)] == words

    def test_push_many_respects_capacity(self):
        queue = ReliableQueue(4)
        assert queue.push_many(list(range(10)), 0) == 4
        assert queue.push_many(list(range(10)), 4) == 0  # full: block

    def test_push_many_declines_with_tracer(self):
        queue = ReliableQueue(8)
        queue.tracer = InMemoryTracer()
        assert queue.push_many([1, 2, 3], 0) == 0

    def test_pop_many_matches_pop_loop(self):
        queue = ReliableQueue(16)
        for word in range(8):
            queue.push(word)
        assert queue.pop_many(3) == [0, 1, 2]
        assert queue.pop_many(100) == [3, 4, 5, 6, 7]
        assert queue.pop_many(1) == []

    def test_pop_many_compacts_like_pop(self):
        queue = ReliableQueue(10_000)
        queue.push_many(list(range(5000)), 0)
        assert queue.pop_many(4200) == list(range(4200))
        assert queue._read == 0  # compacted
        assert queue.pop_many(10) == list(range(4200, 4210))


class TestSoftwareQueueBulk:
    def test_push_pop_roundtrip_matches(self):
        reference, bulk = SoftwareQueue(16), SoftwareQueue(16)
        words = [7, 8, 9, 10]
        for word in words:
            reference.push(word)
        bulk.push_many(words, 0)
        assert (bulk.head, bulk.tail) == (reference.head, reference.tail)
        assert bulk._buffer == reference._buffer
        assert bulk.pop_many(4) == [reference.pop() for _ in range(4)]
        assert (bulk.head, bulk.tail) == (reference.head, reference.tail)

    def test_pop_many_replays_stale_slots_after_corruption(self):
        reference, bulk = SoftwareQueue(8), SoftwareQueue(8)
        for queue in (reference, bulk):
            for word in range(6):
                queue.push(word)
            queue.head = (queue.head - (1 << 20)) & 0xFFFFFFFF  # corrupt view
        expected = [reference.pop() for _ in range(5)]
        assert bulk.pop_many(5) == expected
        assert bulk.head == reference.head

    def test_push_many_blocked_when_corrupt_full_view(self):
        queue = SoftwareQueue(8)
        queue.tail = (queue.head + (1 << 10)) & 0xFFFFFFFF  # looks over-full
        assert queue.push_many([1, 2], 0) == 0


def make_guarded(workset=4, capacity=64):
    return GuardedQueue(0, QueueGeometry(workset_units=workset, capacity_units=capacity))


class TestGuardedQueueBulk:
    def test_push_items_matches_push_unit_sequence(self):
        reference, bulk = make_guarded(), make_guarded()
        ref_stats, bulk_stats = CommGuardStats(), CommGuardStats()
        words = list(range(11))
        for word in words:
            assert reference.push_unit(item_unit(word), ref_stats)
        assert bulk.push_items(words, 0, bulk_stats) == 11
        assert bulk_stats == ref_stats  # same publishes, ECC charges, locals
        assert bulk.visible_units() == reference.visible_units()
        assert bulk.unpublished_units() == reference.unpublished_units()
        assert bulk.peak_units == reference.peak_units
        assert list(bulk._published) == list(reference._published)

    def test_push_items_respects_capacity(self):
        queue = make_guarded(workset=4, capacity=6)
        stats = CommGuardStats()
        assert queue.push_items(list(range(10)), 0, stats) == 6
        assert queue.push_items(list(range(10)), 6, stats) == 0  # full: block

    def test_push_items_declines_with_tracer(self):
        queue = make_guarded()
        queue.tracer = InMemoryTracer()
        assert queue.push_items([1, 2, 3], 0, CommGuardStats()) == 0

    def test_pop_plain_items_stops_at_header_uncharged(self):
        queue = make_guarded(workset=2)
        stats = CommGuardStats()
        for word in (1, 2):
            queue.push_unit(item_unit(word), stats)
        queue.push_unit(header_unit(1), stats)
        queue.push_unit(item_unit(3), stats)
        queue.flush(stats)
        consumer = CommGuardStats()
        assert queue.pop_plain_items(10, consumer) == [item_unit(1), item_unit(2)]
        assert consumer.qm_pop_local == 2
        assert consumer.header_loads == 0  # header untouched, uncharged
        # The header is still at the front for the per-word FSM path.
        assert queue.pop_unit(consumer) == header_unit(1)

    def test_pop_plain_items_empty_queue(self):
        queue = make_guarded()
        assert queue.pop_plain_items(5, CommGuardStats()) == []


class TestWakeHooks:
    """Queue mutations notify the installed wake hub (idempotent booleans)."""

    class _Hub:
        def __init__(self):
            self.calls = []

        def on_push(self, qid):
            self.calls.append(("push", qid))

        def on_pop(self, qid):
            self.calls.append(("pop", qid))

        def on_corrupt(self, qid):
            self.calls.append(("corrupt", qid))

    def test_reliable_queue_notifies(self):
        queue = ReliableQueue(8)
        queue.qid = 5
        queue.wake_hub = hub = self._Hub()
        queue.push(1)
        queue.pop()
        queue.push_many([2, 3], 0)
        queue.pop_many(2)
        assert hub.calls == [("push", 5), ("pop", 5), ("push", 5), ("pop", 5)]

    def test_software_queue_notifies_corrupt(self):
        queue = SoftwareQueue(8)
        queue.qid = 3
        queue.wake_hub = hub = self._Hub()
        queue.push(1)
        queue.corrupt_pointer(random.Random(0))
        assert ("corrupt", 3) in hub.calls

    def test_guarded_queue_notifies_on_publish_and_pop(self):
        queue = make_guarded(workset=2)
        queue.wake_hub = hub = self._Hub()
        stats = CommGuardStats()
        queue.push_unit(item_unit(1), stats)
        assert hub.calls == []  # local working set: nothing visible yet
        queue.push_unit(item_unit(2), stats)
        assert hub.calls == [("push", 0)]  # workset full -> publish
        queue.pop_unit(stats)
        assert hub.calls[-1] == ("pop", 0)
