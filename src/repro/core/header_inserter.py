"""The Header Inserter (HI), Section 4.1.

At the start of every frame computation the HI inserts an ECC-protected
frame header carrying the thread's ``active-fc`` into **all** outgoing
queues; when the thread's outermost scope exits it inserts the reserved
end-of-computation header and flushes partially-filled working sets.  The
thread itself is oblivious to these insertions.

Because queue pushes can block (full queue), insertion is resumable: the HI
keeps a worklist of still-pending insertions and :meth:`advance` retries
them until done.  A thread must not execute further pushes/pops until the
HI drains (this is the serializing behaviour whose cost Section 5.3 and
Fig. 13 evaluate).

In the fast exec mode header units come from a *codebook* (frame id ->
header unit) shared by every guard of one run: each frame id is
ECC-encoded once per run, however many queues and threads insert it.  The
codebook is per run, not per process, so every run still does (and every
per-layer profile still sees) its own encoding work.  Without a codebook
(the precise reference) every insertion encodes its header.
"""

from __future__ import annotations

from collections import deque

from repro.core.header import END_OF_COMPUTATION, header_unit
from repro.core.queue_manager import QueueManager
from repro.core.stats import CommGuardStats
from repro.observability.events import HeaderInserted


class HeaderInserter:
    """Per-thread HI module."""

    def __init__(
        self,
        qm: QueueManager,
        stats: CommGuardStats,
        codebook: dict[int, int] | None = None,
    ) -> None:
        self._qm = qm
        self._stats = stats
        #: frame id -> header unit, shared with the run's other guards
        #: (``None``: encode every header).
        self.codebook = codebook
        # Pending work: ("header", qid, frame_id) or ("flush", qid, 0).
        self._pending: deque[tuple[str, int, int]] = deque()
        #: Optional structured-event sink plus the owning thread's name,
        #: both set by the system builder.
        self.tracer = None
        self.thread = ""

    def on_new_frame_computation(self, active_fc: int) -> None:
        """Queue header insertions for every outgoing edge (Table 2).

        Each insertion is followed by a working-set publish so the consumer
        can see the completed frame (the shared-tail refresh of Fig. 6).
        """
        for qid in self._qm.outgoing:
            self.insert_for_queue(qid, active_fc)

    def insert_for_queue(self, qid: int, frame_id: int) -> None:
        """Queue one header insertion + boundary publish for one edge.

        Used directly when frame domains differ across edges (Section 5.4's
        varying frame definitions): each domain's boundary triggers headers
        only on its own edges.
        """
        # prepare-header: read/increment active-fc, set the header bit,
        # compute the header's ECC (Table 3).
        self._stats.prepare_header += 1
        self._stats.ecc_ops += 1
        self._stats.fsm_ops += 1  # per-queue FSM-update of Table 2
        self._pending.append(("header", qid, frame_id))
        self._pending.append(("flush", qid, 0))

    def on_end_of_computation(self) -> None:
        """Queue EOC headers plus working-set flushes for all outgoing edges."""
        for qid in self._qm.outgoing:
            self._stats.prepare_header += 1
            self._stats.ecc_ops += 1
            self._pending.append(("header", qid, END_OF_COMPUTATION))
        for qid in self._qm.outgoing:
            self._pending.append(("flush", qid, 0))

    def header(self, frame_id: int) -> int:
        """The header unit for *frame_id*; with a codebook, encoded at most
        once per run."""
        codebook = self.codebook
        if codebook is None:
            return header_unit(frame_id)
        unit = codebook.get(frame_id)
        if unit is None:
            unit = codebook[frame_id] = header_unit(frame_id)
        return unit

    def advance(self) -> bool:
        """Retry pending insertions; ``True`` when the worklist is drained."""
        while self._pending:
            kind, qid, frame_id = self._pending[0]
            if kind == "header":
                if not self._qm.push(qid, self.header(frame_id)):
                    return False
                if self.tracer is not None:
                    self.tracer.emit(
                        HeaderInserted(
                            thread=self.thread,
                            qid=qid,
                            frame_id=frame_id,
                            eoc=frame_id == END_OF_COMPUTATION,
                        )
                    )
            else:
                if not self._qm.flush(qid):
                    return False
            self._pending.popleft()
        return True

    @property
    def idle(self) -> bool:
        return not self._pending
