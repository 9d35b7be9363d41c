"""Run loops: the legacy round-robin sweep (the ``exec_mode="precise"``
oracle) and the event-driven ready-set scheduler (``exec_mode="fast"``).

Both loops execute the same cooperative model — each
:class:`~repro.machine.thread.NodeThread` runs until it blocks on a queue
operation — and both are required to produce **bit-identical** runs: the
same :class:`~repro.machine.runstats.RunResult` (including the ``sweeps``
and ``forced_unblocks`` counters) and the same trace bytes.

:class:`LegacyScheduler` is the original loop preserved verbatim: every
sweep steps every live thread, a sweep in which no thread's progress token
moved counts as *stuck*, and ``timeout_sweeps`` consecutive stuck sweeps
arm the QM timeout (Section 5.1) so runs always terminate.

:class:`EventScheduler` keeps the exact same *virtual sweep* accounting but
only steps threads that can possibly progress.  A thread that blocked on a
queue registers (implicitly, via the edge endpoint maps) as a waiter; queue
mutations notify the :class:`WakeHub`, which marks exactly the endpoint
threads they could unblock as ready.  The compatibility shim that makes
this bit-identical to the legacy loop is the wake *routing*: legacy sweeps
visit threads in ascending global order, so a state change made while
thread ``i`` is stepping is visible to thread ``j`` within the same sweep
iff ``j > i``.  The hub therefore routes wakes to the current sweep's
ready set when the target sits after the stepping position and to the next
sweep's otherwise.  Skipped threads are provably no-ops in the legacy loop
(a blocked retry has no side effects until the queue state changes in its
favour), so productivity, spin ordering, the stuck-sweep counter and the
``ForcedUnblock(sweep=N)`` trace events all come out identical — the
QM-timeout path is simply the case "ready set empty (or unproductive) but
threads alive".

Wake sources (installed on the queue backends as the ``wake_hub``
attribute, ``None`` when the legacy loop runs):

* a raw-queue ``push`` or a guarded-queue working-set publish makes data
  visible — wake the consumer;
* a raw- or guarded-queue ``pop`` frees capacity — wake the producer;
* a software-queue pointer corruption can flip full/empty views both ways
  — wake both endpoints;
* a QM timeout force-unblocks every live thread — wake all.

Wakes are idempotent booleans, so notifying once per batched queue
operation is equivalent to notifying per word.
"""

from __future__ import annotations

from repro.observability.events import ForcedUnblock


class WakeHub:
    """Ready-set bookkeeping shared by the scheduler and the queues.

    ``position`` is the index of the thread currently stepping (``-1``
    outside the step loop, ``len(threads)`` during the spin phase so every
    wake lands in the next sweep).
    """

    __slots__ = ("producer_of", "consumer_of", "ready_now", "ready_next", "position")

    def __init__(self, n_threads: int) -> None:
        #: qid -> global index of the thread pushing into / popping from it.
        self.producer_of: dict[int, int] = {}
        self.consumer_of: dict[int, int] = {}
        # Sweep 1 visits everyone, exactly like the legacy loop.
        self.ready_now = [True] * n_threads
        self.ready_next = [False] * n_threads
        self.position = -1

    def _wake(self, target: int) -> None:
        if target < 0:
            return
        if target > self.position:
            self.ready_now[target] = True
        else:
            self.ready_next[target] = True

    def on_push(self, qid: int) -> None:
        """Data became visible on *qid*: the consumer may unblock."""
        self._wake(self.consumer_of.get(qid, -1))

    def on_pop(self, qid: int) -> None:
        """Capacity was freed on *qid*: the producer may unblock."""
        self._wake(self.producer_of.get(qid, -1))

    def on_corrupt(self, qid: int) -> None:
        """A pointer corruption can change both the full and empty views."""
        self._wake(self.consumer_of.get(qid, -1))
        self._wake(self.producer_of.get(qid, -1))


class LegacyScheduler:
    """The original round-robin sweep loop, kept verbatim as the run loop
    of the ``exec_mode="precise"`` oracle (and for bisecting any future
    divergence)."""

    def run(self, system, threads, result) -> None:
        config = system.config
        tracer = system.tracer
        profiler = system.profiler
        sweeps = 0
        stuck_sweeps = 0
        while not all(t.done for t in threads):
            sweeps += 1
            if sweeps > config.max_sweeps:
                result.hung = True
                break
            progressed = False
            for thread in threads:
                if thread.done:
                    continue
                before = thread.progress_token()
                thread.step()
                if thread.progress_token() != before:
                    progressed = True
            if progressed:
                stuck_sweeps = 0
                continue
            # Nothing moved: blocked threads spin (exposing queue state to
            # spin-time errors) and, after timeout_sweeps, the QM timeout arms.
            stuck_sweeps += 1
            for thread in threads:
                if not thread.done:
                    thread.spin(config.spin_instructions)
            if stuck_sweeps >= config.timeout_sweeps:
                for thread in threads:
                    if not thread.done:
                        thread.force_unblock = True
                        result.forced_unblocks += 1
                        if tracer is not None:
                            tracer.emit(
                                ForcedUnblock(thread=thread.node.name, sweep=sweeps)
                            )
                        if profiler is not None:
                            # Timeline mark at the thread's own simulated
                            # clock — scheduler-invariant, unlike sweeps.
                            profiler.mark(
                                thread.node.name, "forced-unblock", thread.sim_now
                            )
                stuck_sweeps = 0
        result.sweeps = sweeps


class EventScheduler:
    """Event-driven ready-set scheduler (see module docstring); the run
    loop of ``exec_mode="fast"``."""

    def run(self, system, threads, result) -> None:
        config = system.config
        tracer = system.tracer
        n = len(threads)
        hub = WakeHub(n)
        index_of = {id(t.node): i for i, t in enumerate(threads)}
        for edge in system.program.graph.edges:
            hub.producer_of[edge.qid] = index_of.get(id(edge.src), -1)
            hub.consumer_of[edge.qid] = index_of.get(id(edge.dst), -1)
        queues = list(system._queues.values())
        for queue in queues:
            queue.wake_hub = hub
        try:
            self._loop(config, tracer, system.profiler, threads, result, hub)
        finally:
            for queue in queues:
                queue.wake_hub = None

    def _loop(self, config, tracer, profiler, threads, result, hub) -> None:
        n = len(threads)
        live = sum(1 for t in threads if not t.done)
        sweeps = 0
        stuck_sweeps = 0
        while live:
            sweeps += 1
            if sweeps > config.max_sweeps:
                result.hung = True
                break
            progressed = False
            ready = hub.ready_now
            for i in range(n):
                if not ready[i]:
                    continue
                ready[i] = False
                thread = threads[i]
                if thread.done:
                    continue
                hub.position = i
                before = thread.progress_token()
                if thread.step() == "done":
                    live -= 1
                if thread.progress_token() != before:
                    progressed = True
            # Swap the ready sets: wakes routed "next" become current.  The
            # spin/timeout phase below belongs to the *current* sweep but its
            # wakes are only visible next sweep (legacy re-steps everyone on
            # the following iteration), so position resets to -1 and further
            # wakes land in the freshly-swapped-in ready set.
            hub.ready_now, hub.ready_next = hub.ready_next, hub.ready_now
            hub.position = -1
            if progressed:
                stuck_sweeps = 0
                continue
            if not live:
                break
            stuck_sweeps += 1
            for thread in threads:
                if not thread.done:
                    thread.spin(config.spin_instructions)
            if stuck_sweeps >= config.timeout_sweeps:
                next_ready = hub.ready_now  # already swapped: the next sweep's set
                for i, thread in enumerate(threads):
                    if not thread.done:
                        thread.force_unblock = True
                        next_ready[i] = True
                        result.forced_unblocks += 1
                        if tracer is not None:
                            tracer.emit(
                                ForcedUnblock(thread=thread.node.name, sweep=sweeps)
                            )
                        if profiler is not None:
                            # Same mark, same per-thread clock, as legacy.
                            profiler.mark(
                                thread.node.name, "forced-unblock", thread.sim_now
                            )
                stuck_sweeps = 0
        result.sweeps = sweeps
