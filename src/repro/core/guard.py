"""Per-thread CommGuard assembly (Figure 4).

One :class:`CommGuard` instance attaches to one thread/core.  It owns the
thread's frame-progress counters, the Header Inserter, one Alignment
Manager per incoming queue, the Queue Manager facade and the Queue
Information Table.

Frame-size scaling (Section 5.4) is implemented with *frame domains*: each
queue belongs to a domain with its own saturating counter and ``active-fc``
replica.  With the default application-wide frame definition every queue
shares the config's single scale, which degenerates to the paper's two
counters; supplying per-queue scales when attaching queues enables the
paper's "varying frame definitions across an application" extension (one
redundant active-fc counter per frame domain, as Section 5.4 prescribes).

The thread interacts with the guard through exactly the interface events of
Table 2: ``push``, ``pop`` and ``new frame computation`` (plus the
end-of-computation signal from the PPU protection module).

In the fast exec mode every guard of one run shares a header *codebook*
(frame id -> header unit): the HIs encode each frame id once per run and
the AMs recognise the expected frame's header without decoding it.
"""

from __future__ import annotations

from repro.core.alignment_manager import AlignmentManager
from repro.core.config import CommGuardConfig
from repro.core.header import item_unit
from repro.core.header_inserter import HeaderInserter
from repro.core.qit import QITEntry, QueueInfoTable
from repro.core.queue_manager import GuardedQueue, QueueManager
from repro.core.stats import CommGuardStats
from repro.words import WORD_MASK


class _FrameDomain:
    """One frame domain: a saturating counter + an active-fc replica."""

    __slots__ = ("scale", "active_fc", "_invocations", "started")

    def __init__(self, scale: int) -> None:
        if scale < 1:
            raise ValueError("frame scale must be >= 1")
        self.scale = scale
        self.active_fc = 0
        self._invocations = 0
        self.started = False

    def on_frame_computation(self) -> bool:
        """Count one invocation; True when a domain frame boundary crossed."""
        self._invocations += 1
        if self.started and self._invocations < self.scale:
            return False
        self._invocations = 0
        if self.started:
            self.active_fc = (self.active_fc + 1) & WORD_MASK
        self.started = True
        return True


class CommGuard:
    """The reliable CommGuard modules attached to one PPU core/thread."""

    def __init__(
        self,
        config: CommGuardConfig | None = None,
        codebook: dict[int, int] | None = None,
    ) -> None:
        self.config = config or CommGuardConfig()
        self.stats = CommGuardStats()
        self.qit = QueueInfoTable()
        self.qm = QueueManager(self.stats)
        #: frame id -> header unit, one dict shared by every guard of a
        #: fast-mode run (see :meth:`MulticoreSystem.build`); ``None``
        #: encodes and decodes every header.
        self.codebook = codebook
        self.hi = HeaderInserter(self.qm, self.stats, self.codebook)
        self._ended = False
        self._ams: dict[int, AlignmentManager] = {}
        # qid -> domain; domains may be shared between queues of equal scale.
        self._domains: dict[int, _FrameDomain] = {}
        self._domains_by_scale: dict[int, _FrameDomain] = {}

    # -- wiring ---------------------------------------------------------------

    def _domain_for(self, frame_scale: int | None) -> _FrameDomain:
        scale = frame_scale or self.config.frame_scale
        if scale not in self._domains_by_scale:
            self._domains_by_scale[scale] = _FrameDomain(scale)
        return self._domains_by_scale[scale]

    def attach_incoming(
        self, queue: GuardedQueue, frame_scale: int | None = None
    ) -> AlignmentManager:
        am = AlignmentManager(
            queue, self.stats, pad_word=self.config.pad_word, codebook=self.codebook
        )
        self._ams[queue.qid] = am
        self._domains[queue.qid] = self._domain_for(frame_scale)
        self.qm.attach_incoming(queue)
        self.qit.add(
            QITEntry(qid=queue.qid, direction="in", queue=queue, alignment_manager=am)
        )
        return am

    def attach_outgoing(
        self, queue: GuardedQueue, frame_scale: int | None = None
    ) -> None:
        self.qm.attach_outgoing(queue)
        self._domains[queue.qid] = self._domain_for(frame_scale)
        self.qit.add(QITEntry(qid=queue.qid, direction="out", queue=queue))

    def alignment_manager(self, qid: int) -> AlignmentManager:
        return self._ams[qid]

    def bind_tracer(self, tracer, thread: str) -> None:
        """Point the guard's HI and AMs at a structured-event sink.

        Call after all queues are attached; *thread* is the owning thread's
        name, stamped on every emitted event.
        """
        self.hi.tracer = tracer
        self.hi.thread = thread
        for am in self._ams.values():
            am.tracer = tracer
            am.thread = thread

    # -- interface events (Table 2) ---------------------------------------------

    def on_new_frame_computation(self) -> None:
        """The PPU protection module reported a new frame computation.

        Every frame domain counts the invocation through its saturating
        counter; domains whose boundary is crossed bump their ``active-fc``
        replica, trigger header insertion on their outgoing edges and roll
        their incoming edges' AM expectations.
        """
        crossed: set[int] = set()
        for domain in self._domains_by_scale.values():
            self.stats.counter_ops += 1
            if domain.on_frame_computation():
                self.stats.counter_ops += 1
                crossed.add(id(domain))
        for qid, domain in self._domains.items():
            if id(domain) not in crossed:
                continue
            if qid in self._ams:
                self._ams[qid].on_new_frame_computation(domain.active_fc)
            else:
                self.hi.insert_for_queue(qid, domain.active_fc)

    def on_end_of_computation(self) -> None:
        """The thread's outermost global scope exited (Section 4.4)."""
        if not self._ended:
            self._ended = True
            self.hi.on_end_of_computation()

    def push(self, qid: int, word: int) -> bool:
        """Push one item; ``False`` when blocked (retry later)."""
        return self.qm.push(qid, item_unit(word))

    def push_many(self, qid: int, words: list[int], start: int) -> int:
        """Bulk fast path: push as many of ``words[start:]`` as fit."""
        return self.qm.push_items(qid, words, start)

    def pop(self, qid: int) -> int | None:
        """Pop one item through the AM; ``None`` when blocked (retry later)."""
        return self._ams[qid].pop(self._domains[qid].active_fc)

    def pop_many(self, qid: int, limit: int) -> list[int]:
        """Bulk fast path: pop up to *limit* aligned plain items."""
        return self._ams[qid].pop_block(limit, self._domains[qid].active_fc)

    def can_pop_quiet(self, qid: int, count: int) -> bool:
        """True when *count* pops on *qid* would complete without blocking,
        padding or discarding; the only FSM transition allowed is consuming
        the expected header of a frame crossing (quiet-span eligibility)."""
        return self._ams[qid].can_pop_block(count, self._domains[qid].active_fc)

    def can_push_quiet(self, qid: int, count: int) -> bool:
        """True when *count* pushes on *qid* would complete without
        blocking (quiet-span eligibility)."""
        queue = self.qm.outgoing[qid]
        return queue.geometry.capacity_units - queue.total_units() >= count

    def advance_header_insertions(self) -> bool:
        """Drain pending HI work; ``True`` when no insertions are pending.

        Pushes and pops of the thread must wait until this returns ``True``
        (the serializing dependency of Section 5.3).
        """
        return self.hi.advance()

    # -- introspection ---------------------------------------------------------

    @property
    def active_fc(self) -> int:
        """The default domain's active-fc (the paper's single counter)."""
        domain = self._domains_by_scale.get(self.config.frame_scale)
        return domain.active_fc if domain else 0

    @property
    def frames_completed(self) -> int:
        """Frame boundaries crossed in the default domain so far."""
        domain = self._domains_by_scale.get(self.config.frame_scale)
        if domain is None:
            return 0
        return domain.active_fc + (1 if domain.started else 0)

    def reliable_storage_bits(self) -> int:
        """Section 5.5's reliable on-core storage estimate for this thread.

        Extra frame domains each add a redundant counter pair.
        """
        extra_domains = max(0, len(self._domains_by_scale) - 1)
        return self.qit.reliable_storage_bits() + extra_domains * 2 * 32
