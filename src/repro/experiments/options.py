"""Engine options shared by every execution entry point.

:func:`repro.api.run`, :func:`repro.api.sweep`, the CLI (``repro run`` /
``repro figure`` / ``repro sweep`` / ``repro paper``), the
:class:`~repro.experiments.registry.FigureSpec` runners and every figure
harness's ``main(options=...)`` accept the same knobs through this
dataclass — the single documented spelling of "how should the engine
execute this".  Batch entry points turn it into an engine through one
constructor, :meth:`~repro.experiments.parallel.ParallelRunner.from_options`,
so a figure harness and an API sweep configured the same way build the
same runner, and a single :func:`~repro.api.run` call reuses the very same
option names.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class EngineOptions:
    """How the engine executes a run or a batch of runs.

    ``scale`` shrinks app inputs (``None`` keeps each harness's default);
    ``jobs`` is the worker-process count (``None`` defers to ``REPRO_JOBS``
    or the CPU count, ``1`` forces serial); ``cache`` lets a batch entry
    point without a ``store`` persist to the default store (see below);
    ``trace_dir`` ships one JSONL trace per executed run,
    while ``trace`` is the trace destination for a one-run entry point
    (:func:`repro.api.run`) — anything
    :func:`~repro.observability.coerce_tracer` understands: a JSONL
    path, ``True`` for in-memory event collection, or a ready tracer.
    Batch entry points ignore ``trace`` in favour of ``trace_dir``.

    ``exec_mode`` selects the simulation execution mode: ``"fast"`` (the
    quiet-span bulk path, the default) or ``"precise"`` (the per-word
    oracle).  The two are bit-identical by contract — same records, same
    content keys, byte-identical traces — so this knob trades nothing but
    wall-clock time.

    The fault-tolerance knobs mirror
    :class:`~repro.experiments.parallel.ParallelRunner`: ``retries`` is
    the bounded per-spec retry budget, ``run_timeout`` the per-run
    wall-clock limit in seconds, ``retry_backoff`` the deterministic
    backoff base (attempt *n* waits ``retry_backoff * 2**n`` seconds — no
    jitter), and ``keep_going=True`` turns exhausted failures into
    structured :class:`~repro.experiments.parallel.FailureRecord`\\ s
    instead of raising on the first one (strict mode, the default).

    ``store`` selects the :class:`~repro.experiments.store.RunStore`,
    the one place results persist: a database path, ``True`` for the
    default location (``.repro_store.sqlite`` / ``REPRO_STORE``), a
    ready :class:`~repro.experiments.store.RunStore`, or ``None``
    (default).  A batch entry point picks its store by
    :func:`~repro.experiments.store.resolve_store`: an explicit ``store``
    wins (and makes a sweep a resumable campaign); otherwise
    ``cache=True`` means the default store; otherwise nothing persists.
    :func:`repro.api.run` reads ``store`` alone.
    """

    scale: float | None = None
    jobs: int | None = None
    cache: bool = True
    trace_dir: str | None = None
    trace: object | None = None
    exec_mode: str = "fast"
    retries: int = 0
    run_timeout: float | None = None
    retry_backoff: float = 0.0
    keep_going: bool = False
    store: object | None = None
