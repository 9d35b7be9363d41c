"""The Alignment Manager (AM), Section 4.2.

One AM instance guards one incoming queue of a consumer thread.  It answers
the thread's pop requests, classifying each data unit the QM returns against
the thread's ``active-fc`` and driving the Table 1 FSM; on misalignment it
*discards* queue data (to realign the communication with the computation) or
*pads* the thread's pops with a constant (to realign the computation with
the communication).

The public surface is two methods mirroring the FSM's two event sources:
:meth:`pop` for pop instructions and :meth:`on_new_frame_computation` for
frame-computation rollovers.

In the fast exec mode headers are checked against a *codebook* (frame id
-> header unit) that the owning guard shares with the Header Inserters of
the same run: a header equal to the codebook entry for ``active-fc`` is
the exact encoding of the expected frame, so it is classified without
running the decoder (``decode(encode(f))`` is ``(f, uncorrected)``).  Any
other header unit, and every header without a codebook (the precise
reference), takes the full ECC decode.
"""

from __future__ import annotations

from repro.core.ecc import EccError
from repro.core.fsm import AlignmentEvent, AlignmentState, transition
from repro.core.header import (
    END_OF_COMPUTATION,
    header_frame_id,
    is_header_unit,
    unit_word,
)
from repro.core.queue_manager import GuardedQueue
from repro.core.stats import CommGuardStats
from repro.core.trace import TraceKind
from repro.observability.events import AlignmentAction

# Enum members bound to module names once: on CPython 3.11 each
# ``Enum.MEMBER`` lookup is a descriptor call, and the per-frame paths
# (rollover, header classification, the bulk frame crossing) make several.
_EXP_HDR = AlignmentState.EXP_HDR
_PDG = AlignmentState.PDG
_RCV_CMP = AlignmentState.RCV_CMP
_FC_MATCHED_HEADER = AlignmentEvent.FC_MATCHED_HEADER
_NEW_FRAME_COMPUTATION = AlignmentEvent.NEW_FRAME_COMPUTATION
_RECEIVED_CORRECT_HEADER = AlignmentEvent.RECEIVED_CORRECT_HEADER
_RECEIVED_FUTURE_HEADER = AlignmentEvent.RECEIVED_FUTURE_HEADER
_RECEIVED_ITEM = AlignmentEvent.RECEIVED_ITEM
_RECEIVED_PAST_HEADER = AlignmentEvent.RECEIVED_PAST_HEADER


class AlignmentManager:
    """Per-incoming-queue alignment checker and pad/discard engine."""

    def __init__(
        self,
        queue: GuardedQueue,
        stats: CommGuardStats,
        pad_word: int = 0,
        codebook: dict[int, int] | None = None,
    ) -> None:
        self._queue = queue
        self._stats = stats
        self._pad_word = pad_word
        #: frame id -> header unit, filled by the run's Header Inserters
        #: (empty without one: every header is decoded).
        self._codebook = {} if codebook is None else codebook
        self.state = _RCV_CMP
        #: Frame ID of the future header that sent us to Pdg (or None).
        self.pending_header: int | None = None
        #: True once the producer's end-of-computation header was seen.
        self.producer_finished = False
        #: Optional trace hook: (TraceKind, active_fc, detail) -> None.
        self.observer = None
        #: Optional structured-event sink (set by the system builder) plus
        #: the (thread, qid) identity stamped on every emitted event.
        self.tracer = None
        self.thread = ""
        self.qid = queue.qid

    # -- tracing -----------------------------------------------------------------

    def _notify(self, kind: TraceKind, active_fc: int, detail: str = "") -> None:
        if self.observer is not None:
            self.observer(kind, active_fc, detail)

    def _emit_action(self, action: str, active_fc: int, reason: str) -> None:
        self.tracer.emit(
            AlignmentAction(
                thread=self.thread,
                qid=self.qid,
                action=action,
                active_fc=active_fc,
                reason=reason,
            )
        )

    def _apply(self, event: AlignmentEvent, active_fc: int) -> "AlignmentState":
        """Run one FSM transition, tracing state changes."""
        previous = self.state
        self.state = transition(previous, event)
        if self.state is not previous and self.observer is not None:
            self._notify(
                TraceKind.TRANSITION,
                active_fc,
                f"{previous.value} -> {self.state.value} on {event.value}",
            )
        return previous

    # -- event: new frame computation ---------------------------------------

    def on_new_frame_computation(self, active_fc: int) -> None:
        """The local thread rolled over to frame *active_fc*."""
        self._stats.counter_ops += 1
        self._stats.fsm_ops += 1
        if self.state is _PDG:
            if self.pending_header is not None and active_fc >= self.pending_header:
                self._apply(_FC_MATCHED_HEADER, active_fc)
                self.pending_header = None
        else:
            self._apply(_NEW_FRAME_COMPUTATION, active_fc)

    # -- event: pop instruction ----------------------------------------------

    def pop(self, active_fc: int) -> int | None:
        """Serve one pop request of the local thread.

        Returns the word to hand to the thread, or ``None`` when the queue
        is empty and the request must block (the AM's state is preserved so
        a retry resumes exactly where it left off).

        The passive is-state-Pdg comparison at the top of Table 2's pop flow
        is folded into the pop datapath (a mode-bit check, not a separate
        hardware suboperation); only FSM *updates* are charged to the
        FSM/Counter series of Fig. 14.
        """
        if self.state is _PDG:
            self._stats.pads += 1
            self._notify(TraceKind.PAD, active_fc, "padding until matched frame")
            if self.tracer is not None:
                self._emit_action("pad", active_fc, "padding until matched frame")
            return self._pad_word
        while True:
            unit = self._queue.pop_unit(self._stats)
            if unit is None:
                if self.producer_finished:
                    # Producer done and drained: every further pop pads.
                    self._stats.pads += 1
                    self._notify(TraceKind.PAD, active_fc, "producer finished")
                    if self.tracer is not None:
                        self._emit_action("pad", active_fc, "producer finished")
                    return self._pad_word
                return None
            self._stats.is_header_checks += 1
            if not is_header_unit(unit):
                if self.state is _RCV_CMP:
                    return unit_word(unit)
                if self.state is _EXP_HDR:
                    self._apply(_RECEIVED_ITEM, active_fc)
                    self._stats.fsm_ops += 1
                    self._stats.discard_events += 1
                self._stats.discarded_items += 1
                self._notify(TraceKind.DISCARD_ITEM, active_fc, "extra item drained")
                if self.tracer is not None:
                    self._emit_action(
                        "discard-item", active_fc, "extra item drained"
                    )
                continue
            # Header unit: ECC-check, then classify against active-fc.
            self._stats.ecc_ops += 1
            try:
                frame_id = self._frame_id(unit, active_fc)
            except EccError:
                # Uncorrectable header: drop it; frame checking recovers at
                # the next boundary.
                self._stats.ecc_uncorrectable += 1
                self._stats.discarded_headers += 1
                self._notify(
                    TraceKind.DISCARD_HEADER, active_fc, "uncorrectable ECC"
                )
                if self.tracer is not None:
                    self._emit_action(
                        "discard-header", active_fc, "uncorrectable ECC"
                    )
                continue
            served = self._on_header(frame_id, active_fc)
            if served is not None:
                return served

    def _frame_id(self, unit: int, active_fc: int) -> int:
        """The frame id of header *unit*; raises :class:`EccError` when it
        is uncorrectable.  The codebook entry for *active_fc* is an exact
        encoding, so it needs no decoder."""
        if unit == self._codebook.get(active_fc):
            return active_fc
        return header_frame_id(unit)

    def pop_block(self, limit: int, active_fc: int) -> list[int]:
        """Bulk fast path: serve up to *limit* pops in one call.

        Two states qualify.  In the aligned steady state (``Rcv/Cmp``,
        producer still running) every plain item is simply checked and
        handed over, so a run of non-header units is charged and returned
        in bulk.  At a frame crossing (``ExpHdr``) the call qualifies when
        :meth:`can_pop_block` does for one word: the expected header is
        popped and classified as :meth:`pop` does it (``pop_unit``, the
        header-bit and ECC checks, :meth:`_on_header` taking the FSM to
        ``Rcv/Cmp``), and the plain units behind it follow in bulk.
        Anything else returns ``[]`` before consuming or charging
        anything, and the per-word :meth:`pop` handles it with the full
        FSM semantics.  Observably identical to the equivalent pops.
        """
        if self.state is _EXP_HDR:
            if limit < 1 or not self._expected_header_next(1, active_fc):
                return []
            self._queue.pop_unit(self._stats)
            self._stats.is_header_checks += 1
            self._stats.ecc_ops += 1
            self._on_header(active_fc, active_fc)
        elif self.state is not _RCV_CMP or self.producer_finished:
            return []
        units = self._queue.pop_plain_items(limit, self._stats)
        self._stats.is_header_checks += len(units)
        # Plain item units are bare masked words (the header flag is the
        # only metadata bit, and pop_plain_items never returns headers), so
        # the units pass through without a per-word unit_word() transform.
        return units

    def can_pop_block(self, count: int, active_fc: int) -> bool:
        """True when :meth:`pop_block` would serve *count* words right now.

        The quiet-span fast path's pop-eligibility check, O(1).  Either the
        FSM is in its aligned steady state, the producer still running, and
        at least *count* plain units are published ahead of any header; or
        the FSM is in ``ExpHdr`` and the front of the queue is the header
        for *active_fc* followed by at least *count* plain units (a frame
        crossing the quiet firing consumes in bulk).
        """
        if self.state is _EXP_HDR:
            return self._expected_header_next(count, active_fc)
        return (
            self.state is _RCV_CMP
            and not self.producer_finished
            and self._queue.plain_visible_units() >= count
        )

    def _expected_header_next(self, count: int, active_fc: int) -> bool:
        """``ExpHdr`` eligibility of the bulk path: the unit at the pop
        cursor is exactly the codebook header for *active_fc*, at least
        *count* plain units follow it, and no tracer, observer or profiler
        is attached (each expects to see the crossing word by word)."""
        queue = self._queue
        if (
            self.producer_finished
            or self.tracer is not None
            or self.observer is not None
            or queue.profiler is not None
        ):
            return False
        header = queue.front_header()
        return (
            header is not None
            and header == self._codebook.get(active_fc)
            and queue.plain_units_behind_header() >= count
        )

    def _on_header(self, frame_id: int, active_fc: int) -> int | None:
        """Drive the FSM for a received header; maybe serve padding."""
        if frame_id == END_OF_COMPUTATION:
            # Treated as a header no future frame computation of this run
            # matches: the producer is finished, all further pops pad.
            self.producer_finished = True
            self.pending_header = None
            self.state = _RCV_CMP
            self._stats.fsm_ops += 1
            self._stats.pads += 1
            self._notify(TraceKind.EOC, active_fc, "producer end-of-computation")
            if self.tracer is not None:
                self._emit_action("pad", active_fc, "producer end-of-computation")
            return self._pad_word
        if frame_id == active_fc:
            event = _RECEIVED_CORRECT_HEADER
        elif frame_id < active_fc:
            event = _RECEIVED_PAST_HEADER
        else:
            event = _RECEIVED_FUTURE_HEADER
        previous = self._apply(event, active_fc)
        self._stats.fsm_ops += 1
        if event is _RECEIVED_FUTURE_HEADER:
            self.pending_header = frame_id
            if previous is not _PDG:
                self._stats.pad_events += 1
            self._stats.pads += 1
            self._notify(
                TraceKind.PAD, active_fc, f"future header {frame_id} (data lost)"
            )
            if self.tracer is not None:
                self._emit_action(
                    "pad", active_fc, f"future header {frame_id} (data lost)"
                )
            return self._pad_word
        if event is _RECEIVED_PAST_HEADER:
            if previous is _RCV_CMP:
                self._stats.discard_events += 1
            self._stats.discarded_headers += 1
            self._notify(
                TraceKind.DISCARD_HEADER, active_fc, f"stale header {frame_id}"
            )
            if self.tracer is not None:
                self._emit_action(
                    "discard-header", active_fc, f"stale header {frame_id}"
                )
            return None  # keep draining
        if (
            event is _RECEIVED_CORRECT_HEADER
            and previous is _RCV_CMP
        ):
            # Duplicate header for the active frame: not in Table 1; benign,
            # discard and continue.
            self._stats.discarded_headers += 1
            if self.tracer is not None:
                self._emit_action(
                    "discard-header", active_fc, f"duplicate header {frame_id}"
                )
            return None
        # Correct header resolved ExpHdr/Disc/DiscFr: continue the loop to
        # fetch the actual item the thread asked for.
        return None

    # -- introspection ---------------------------------------------------------

    @property
    def aligned(self) -> bool:
        """True when no misalignment is being worked around."""
        return self.state in (_RCV_CMP, _EXP_HDR)
