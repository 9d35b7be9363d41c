"""Frame crossings on the fast path: the bulk expected-header pop and the
per-run header codebook.

Each fast spelling is checked against the Table 2 path it stands in for —
per-word AM pops, and HIs and AMs that encode and decode every header — on
hand-built guards, so a divergence points at the exact state that differs.
The whole-run counterpart is ``tests/machine/test_exec_mode_equivalence.py``.
"""

import dataclasses

import pytest

import repro.core.alignment_manager as alignment_manager_module
from repro.apps import build_app
from repro.core.alignment_manager import AlignmentManager
from repro.core.config import CommGuardConfig
from repro.core.ecc import EccError, ecc_decode
from repro.core.fsm import AlignmentState as S
from repro.core.guard import CommGuard
from repro.core.header import (
    END_OF_COMPUTATION,
    header_frame_id,
    header_unit,
    item_unit,
)
from repro.core.queue_manager import GuardedQueue, QueueGeometry
from repro.core.stats import CommGuardStats
from repro.machine.errors import ErrorModel
from repro.machine.protection import ProtectionLevel
from repro.machine.system import MulticoreSystem, SystemConfig
from repro.machine.thread import GuardedCommPath

_CODEWORD_MASK = (1 << 39) - 1


def queue_state(queue):
    """Everything a queue operation can change, in comparable form."""
    return (
        queue._published[queue._read :],
        list(queue._producer_local),
        list(queue._local_headers),
        list(queue._header_offsets),
        queue._published_total,
        queue._popped_total,
        queue._flushed,
        queue.peak_units,
    )


def guard_state(guard):
    return (
        dataclasses.asdict(guard.stats),
        list(guard.hi._pending),
        [queue_state(q) for q in guard.qm.outgoing.values()],
        [queue_state(q) for q in guard.qm.incoming.values()],
        [(am.state, am.pending_header) for am in guard._ams.values()],
        guard.active_fc,
    )


def make_producer(
    n_out=3, workset_units=4, capacity=32, frame_scale=1, n_in=1, codebook=None
):
    """A guard with *n_in* incoming and *n_out* outgoing queues."""
    guard = CommGuard(CommGuardConfig(frame_scale=frame_scale), codebook=codebook)
    geometry = QueueGeometry(workset_units=workset_units, capacity_units=capacity)
    for qid in range(n_in):
        guard.attach_incoming(GuardedQueue(100 + qid, geometry))
    for qid in range(n_out):
        guard.attach_outgoing(GuardedQueue(qid, geometry))
    return guard


def fill(queue, n=None):
    """Push *n* plain items (or until full) with a throwaway stats object."""
    stats = CommGuardStats()
    pushed = 0
    while (n is None or pushed < n) and queue.push_unit(item_unit(pushed), stats):
        pushed += 1
    return pushed


def roll_modular(guard):
    guard.on_new_frame_computation()
    guard.advance_header_insertions()


def make_consumer(units, active_fc=0, codebook=None, workset_units=1):
    """An AM in ExpHdr for *active_fc* over a queue holding *units*."""
    stats = CommGuardStats()
    queue = GuardedQueue(0, QueueGeometry(workset_units, capacity_units=4096))
    feed_stats = CommGuardStats()
    for unit in units:
        assert queue.push_unit(unit, feed_stats)
    queue.flush(feed_stats)
    if codebook is None:
        codebook = {active_fc: header_unit(active_fc)}
    am = AlignmentManager(queue, stats, codebook=codebook)
    am.on_new_frame_computation(active_fc)
    assert am.state is S.EXP_HDR
    return am, queue, stats


def am_state(am, queue, stats):
    return (
        am.state,
        am.pending_header,
        am.producer_finished,
        dataclasses.asdict(stats),
        queue_state(queue),
    )


def frame(frame_id, values):
    return [header_unit(frame_id)] + [item_unit(v) for v in values]


class RecordingHub:
    """A wake hub stand-in that logs the qids whose producer was woken."""

    def __init__(self):
        self.woken = []

    def on_pop(self, qid):
        self.woken.append(qid)


class TestBulkExpectedHeader:
    @pytest.mark.parametrize("limit", [1, 3, 5, 9])
    def test_pop_block_equals_per_word_pops(self, limit):
        units = frame(4, [10, 11, 12, 13, 14]) + frame(5, [20])
        bulk, bulk_queue, bulk_stats = make_consumer(units, active_fc=4)
        word, word_queue, word_stats = make_consumer(units, active_fc=4)
        served = bulk.pop_block(limit, 4)
        assert served == [10, 11, 12, 13, 14][:limit]
        assert [word.pop(4) for _ in served] == served
        assert am_state(bulk, bulk_queue, bulk_stats) == am_state(
            word, word_queue, word_stats
        )
        assert bulk.state is S.RCV_CMP

    def test_can_pop_block_counts_the_units_behind_the_header(self):
        am, queue, stats = make_consumer(
            frame(2, [1, 2, 3]) + frame(3, [4]), active_fc=2
        )
        before = am_state(am, queue, stats)
        assert am.can_pop_block(3, 2)
        assert not am.can_pop_block(4, 2)
        assert am_state(am, queue, stats) == before

    def test_wakes_the_producer(self):
        am, queue, _ = make_consumer(frame(0, [1, 2]))
        queue.wake_hub = RecordingHub()
        assert am.pop_block(2, 0) == [1, 2]
        assert set(queue.wake_hub.woken) == {0}

    @pytest.mark.parametrize(
        "units,active_fc",
        [
            pytest.param(frame(3, [1, 2]), 4, id="past-header"),
            pytest.param(frame(5, [1, 2]), 4, id="future-header"),
            pytest.param(
                [header_unit(END_OF_COMPUTATION)], 4, id="end-of-computation"
            ),
            pytest.param(
                [header_unit(4) ^ 0b11] + [item_unit(1), item_unit(2)],
                4,
                id="uncorrectable-header",
            ),
            pytest.param(
                [header_unit(4) ^ 0b100] + [item_unit(1), item_unit(2)],
                4,
                id="corrected-header",
            ),
            pytest.param(frame(4, []), 4, id="no-plain-units"),
            pytest.param(frame(4, []) + frame(5, [1, 2]), 4, id="header-behind"),
            pytest.param([item_unit(1), item_unit(2)], 4, id="item-at-front"),
            pytest.param([], 4, id="empty-queue"),
        ],
    )
    def test_declines_without_mutating(self, units, active_fc):
        am, queue, stats = make_consumer(units, active_fc=active_fc)
        before = am_state(am, queue, stats)
        assert not am.can_pop_block(2, active_fc)
        assert am.pop_block(2, active_fc) == []
        assert am_state(am, queue, stats) == before

    @pytest.mark.parametrize(
        "attach",
        [
            pytest.param(lambda am, q: setattr(q, "profiler", object()), id="profiler"),
            pytest.param(lambda am, q: setattr(am, "tracer", object()), id="tracer"),
            pytest.param(lambda am, q: setattr(am, "observer", print), id="observer"),
        ],
    )
    def test_declines_when_watched(self, attach):
        am, queue, stats = make_consumer(frame(0, [1, 2, 3]))
        attach(am, queue)
        before = am_state(am, queue, stats)
        assert not am.can_pop_block(1, 0)
        assert am.pop_block(3, 0) == []
        assert am_state(am, queue, stats) == before

    def test_declines_after_end_of_computation(self):
        am, queue, stats = make_consumer(frame(0, [1, 2]))
        am.producer_finished = True
        before = am_state(am, queue, stats)
        assert not am.can_pop_block(1, 0)
        assert am.pop_block(2, 0) == []
        assert am_state(am, queue, stats) == before


class TestHeaderCodebook:
    @pytest.mark.parametrize(
        "codebook,encodes",
        [({}, [0, 1, 2, 3]), (None, [f for f in range(4) for _ in range(3)])],
        ids=["codebook", "no-codebook"],
    )
    def test_each_frame_id_is_encoded_once(self, monkeypatch, codebook, encodes):
        import repro.core.header_inserter as hi_module

        calls = []
        real = hi_module.header_unit
        monkeypatch.setattr(
            hi_module, "header_unit", lambda fid: calls.append(fid) or real(fid)
        )
        guard = make_producer(n_out=3, capacity=4096, codebook=codebook)
        for _ in range(4):
            roll_modular(guard)
        assert calls == encodes
        assert guard.stats.header_stores == 12

    @pytest.mark.parametrize(
        "setup",
        [
            pytest.param(lambda g: None, id="room-everywhere"),
            pytest.param(lambda g: fill(g.qm.outgoing[1]), id="second-of-three-full"),
        ],
    )
    @pytest.mark.parametrize("workset_units", [1, 4])
    def test_codebook_rollover_matches_the_reference(self, setup, workset_units):
        """Rollovers with a codebook leave guard stats, queue contents,
        ``peak_units``, header offsets and the HI worklist exactly as
        rollovers that encode every header."""
        reference = make_producer(workset_units=workset_units)
        with_book = make_producer(workset_units=workset_units, codebook={})
        for guard in (reference, with_book):
            setup(guard)
        for frame_id in range(3):
            roll_modular(reference)
            roll_modular(with_book)
            assert guard_state(with_book) == guard_state(reference), frame_id

    def test_entries_decode_to_their_frame_id(self):
        guard = make_producer(codebook={})
        ids = [*range(64), 12345, END_OF_COMPUTATION - 1, END_OF_COMPUTATION]
        for frame_id in ids:
            guard.hi.header(frame_id)
        assert set(guard.codebook) == set(ids)
        for frame_id, unit in guard.codebook.items():
            assert ecc_decode(unit & _CODEWORD_MASK) == (frame_id, False)
            assert header_frame_id(unit) == frame_id

    def test_exact_entry_skips_the_decoder(self, monkeypatch):
        def no_decode(unit):
            raise AssertionError("decoded a codebook header")

        monkeypatch.setattr(alignment_manager_module, "header_frame_id", no_decode)
        am, _, stats = make_consumer(frame(6, [7, 8]), active_fc=6)
        assert am.pop(6) == 7
        assert am.state is S.RCV_CMP and stats.ecc_ops == 1

    @pytest.mark.parametrize(
        "flip,uncorrectable",
        [(0b1, False), (1 << 20, False), (0b110, True), (1 | 1 << 30, True)],
        ids=["bit0", "bit20", "bits1-2", "bits0-30"],
    )
    def test_other_headers_take_the_full_decode(self, flip, uncorrectable):
        units = [header_unit(6) ^ flip, item_unit(7)] + frame(7, [9])
        with_book, q1, s1 = make_consumer(units, active_fc=6)
        without, q2, s2 = make_consumer(units, active_fc=6, codebook={})
        if uncorrectable:
            with pytest.raises(EccError):
                ecc_decode((header_unit(6) ^ flip) & _CODEWORD_MASK)
        results = [with_book.pop(6), without.pop(6)]
        assert results[0] == results[1]
        assert am_state(with_book, q1, s1) == am_state(without, q2, s2)
        assert s1.ecc_uncorrectable == (1 if uncorrectable else 0)
        if not uncorrectable:
            assert results[0] == 7 and with_book.state is S.RCV_CMP

    @staticmethod
    def build(exec_mode):
        return MulticoreSystem.build(
            build_app("complex-fir", scale=0.05).program,
            ProtectionLevel.COMMGUARD,
            error_model=ErrorModel(mtbe=None),
            system_config=SystemConfig(exec_mode=exec_mode),
        )

    @staticmethod
    def comm_paths(system):
        paths = [t.comm for core in system.cores for t in core.threads]
        assert paths and all(isinstance(p, GuardedCommPath) for p in paths)
        return paths

    def test_one_codebook_per_fast_run(self):
        first, second = self.build("fast"), self.build("fast")
        books = [
            {id(p.guard.codebook) for p in self.comm_paths(system)}
            for system in (first, second)
        ]
        assert len(books[0]) == 1 and len(books[1]) == 1
        assert books[0] != books[1]
        first.run()
        assert self.comm_paths(first)[0].guard.codebook

    def test_precise_runs_keep_the_reference_path(self):
        """No codebook (every header encoded and decoded): the oracle the
        fast path is checked against."""
        paths = self.comm_paths(self.build("precise"))
        assert all(p.guard.codebook is None for p in paths)
