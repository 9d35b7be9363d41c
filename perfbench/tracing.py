"""Per-layer tracing for the traced benchmark run (``--trace 1``).

Everything here lives outside ``src/``: the benchmark wraps the public
entry points of each layer with span recorders, and attaches ``cProfile``
only while ``MulticoreSystem.run`` executes, so layers reached only inside a
simulation are attributed by the module that owns each function.

* Spans (name, start, end, parent) are kept in memory per process and
  reduced to per-name totals: count, total seconds, and self seconds (the
  span's duration minus the part its child spans cover).
* In-run self time is grouped into layers by module (:data:`LAYERS`).  Time
  spent in functions outside ``repro`` (builtins, the standard library) is
  charged to the ``repro`` layer that called them, split by the caller's
  share of that function's time.
* Pool workers of ``ParallelRunner`` are forked, so they inherit the
  patched entry points; each worker writes its reduced summary to the dump
  directory after every run it executes, and the parent merges them.

The repository's own ``SimProfiler``/``EngineProfiler`` are not used: a
``SimProfiler`` makes the quiet-span fast path decline, so it would profile
code the untraced run never executes.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pickle
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: Module prefix (relative to the ``repro`` package) -> layer name.  The
#: first matching prefix wins, so specific modules precede their package.
LAYERS = (
    ("core.ecc", "core.ecc"),
    ("core.queue_manager", "core.queue_manager"),
    ("core.alignment_manager", "core.alignment_manager"),
    ("core.header_inserter", "core.header_inserter"),
    ("core.guard", "core.guard"),
    ("core.", "core.other"),
    ("machine.thread", "machine.thread"),
    ("machine.plan", "machine.thread"),
    ("machine.scheduler", "machine.scheduler"),
    ("machine.queues", "machine.queues"),
    ("machine.faults", "machine.faults"),
    ("machine.errors", "machine.faults"),
    ("machine.", "machine.system"),
    ("apps.", "apps"),
    ("streamit.", "streamit"),
    ("words", "words"),
    ("quality.", "quality"),
    ("observability.", "observability"),
    ("", "repro.other"),
)

#: Function whose call count equals the firings that took the per-word
#: ``NodeThread._fire`` path (it is called exactly once per such firing;
#: ``_fire`` itself is a generator, whose resumptions cProfile counts as
#: calls).
PRECISE_FIRING_MARK = ("machine/thread.py", "_plan_errors")


class LayerMap:
    """Maps a profiled function's file name to its layer (``None`` when the
    function is not part of the ``repro`` package)."""

    def __init__(self, package_dir: Path) -> None:
        self.prefix = str(package_dir.resolve()) + os.sep
        self._cache: dict[str, str | None] = {}

    def __call__(self, filename: str) -> str | None:
        if filename not in self._cache:
            self._cache[filename] = self._lookup(filename)
        return self._cache[filename]

    def _lookup(self, filename: str) -> str | None:
        if not filename.startswith(self.prefix):
            return None
        module = filename[len(self.prefix):].removesuffix(".py")
        module = module.replace(os.sep, ".").removesuffix(".__init__")
        return next(layer for prefix, layer in LAYERS if module.startswith(prefix))


def reduce_profile(profile: cProfile.Profile, layer_of: LayerMap) -> dict:
    """Self seconds and call counts per layer of one profile, plus the
    count of per-word firings (see :data:`PRECISE_FIRING_MARK`)."""
    profile.snapshot_stats()
    layers: dict[str, list] = defaultdict(lambda: [0.0, 0])
    precise = 0
    for (filename, _line, func), (_cc, calls, self_s, _cum, callers) in profile.stats.items():
        layer = layer_of(filename)
        if layer is not None:
            layers[layer][0] += self_s
            layers[layer][1] += calls
            if func == PRECISE_FIRING_MARK[1] and filename.endswith(PRECISE_FIRING_MARK[0]):
                precise += calls
            continue
        # Outside repro: charge the time to the calling layers.
        edges = {caller: edge[2] for caller, edge in callers.items()}
        total = sum(edges.values())
        if not edges:
            layers["external"][0] += self_s
        for caller, edge_s in edges.items():
            share = edge_s / total if total else 1 / len(edges)
            layers[layer_of(caller[0]) or "external"][0] += self_s * share
    return {"layers": dict(layers), "precise_firings": precise}


class Recorder:
    """Spans and in-run profiles of one process.

    ``active`` turns span recording on; ``profiling`` additionally attaches
    ``cProfile`` inside ``MulticoreSystem.run``, with one profile for
    CommGuard runs and one for every other protection level.
    """

    def __init__(self, dump_dir: Path, layer_of: LayerMap) -> None:
        self.dump_dir = dump_dir
        self.layer_of = layer_of
        self.active = False
        self.profiling = False
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self.profiles = {"commguard": cProfile.Profile(), "other": cProfile.Profile()}
        self.firings = 0
        self.sweeps = 0

    def own(self) -> None:
        """Start from empty state in a forked worker (the fork copied the
        parent's open spans and, possibly, its profiler hook)."""
        if os.getpid() != self.pid:
            sys.setprofile(None)
            self._reset()

    @contextmanager
    def span(self, name: str):
        self.own()
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = (name, self.spans[index][1], time.perf_counter(), parent)

    def summary(self) -> dict:
        """Reduced, picklable state: span totals, in-run layers, counts."""
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for index, (name, start, end, _parent) in enumerate(self.spans):
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_s[index]
        return {
            "spans": dict(totals),
            "profiles": {
                kind: reduce_profile(profile, self.layer_of)
                for kind, profile in self.profiles.items()
            },
            "firings": self.firings,
            "sweeps": self.sweeps,
        }

    def take(self) -> dict:
        """Summary of everything recorded so far; recording starts afresh."""
        summary = self.summary()
        self._reset()
        return summary

    def dump(self) -> None:
        """Write this process's summary for the parent to merge."""
        path = self.dump_dir / f"worker-{os.getpid()}.pkl"
        tmp = path.with_suffix(".tmp")
        tmp.write_bytes(pickle.dumps(self.summary()))
        tmp.replace(path)

    def worker_summaries(self) -> list[dict]:
        return [pickle.loads(path.read_bytes()) for path in sorted(self.dump_dir.glob("worker-*.pkl"))]


def merge(summaries: list[dict]) -> dict:
    """Sum process summaries into one."""
    spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    profiles: dict[str, dict] = {}
    firings = sweeps = 0
    for summary in summaries:
        for name, values in summary["spans"].items():
            spans[name] = [a + b for a, b in zip(spans[name], values)]
        for kind, reduced in summary["profiles"].items():
            into = profiles.setdefault(kind, {"layers": defaultdict(lambda: [0.0, 0]), "precise_firings": 0})
            into["precise_firings"] += reduced["precise_firings"]
            for layer, (self_s, calls) in reduced["layers"].items():
                into["layers"][layer][0] += self_s
                into["layers"][layer][1] += calls
        firings += summary["firings"]
        sweeps += summary["sweeps"]
    return {"spans": dict(spans), "profiles": profiles, "firings": firings, "sweeps": sweeps}


class Patches:
    """Wrappers installed on the layers' public entry points; :meth:`restore`
    puts the originals back."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def _span_method(rec: Recorder, span_name: str, method):
    @functools.wraps(method)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return method(*args, **kwargs)
        with rec.span(span_name):
            return method(*args, **kwargs)

    return wrapper


def install(rec: Recorder, patches: Patches) -> None:
    """Wrap every traced entry point.  Wrappers pass straight through while
    ``rec.active`` is false."""
    from repro.apps.base import BenchmarkApp
    from repro.experiments import parallel
    from repro.experiments.store import RunStore
    from repro.machine.protection import ProtectionLevel
    from repro.machine.system import MulticoreSystem

    for name in ("quality", "reference_signal"):
        patches.set(BenchmarkApp, name, _span_method(rec, f"BenchmarkApp.{name}", getattr(BenchmarkApp, name)))
    for name in ("load", "store", "begin_campaign"):
        patches.set(RunStore, name, _span_method(rec, "RunStore", getattr(RunStore, name)))
    patches.set(
        parallel.ParallelRunner,
        "run_specs",
        _span_method(rec, "ParallelRunner.run_specs", parallel.ParallelRunner.run_specs),
    )

    build = MulticoreSystem.__dict__["build"].__func__
    patches.set(MulticoreSystem, "build", classmethod(_span_method(rec, "MulticoreSystem.build", build)))

    run = MulticoreSystem.run

    @functools.wraps(run)
    def traced_run(system):
        if not rec.active:
            return run(system)
        with rec.span("MulticoreSystem.run"):
            profile = None
            if rec.profiling:
                kind = "commguard" if system.protection is ProtectionLevel.COMMGUARD else "other"
                profile = rec.profiles[kind]
                profile.enable()
            try:
                result = run(system)
            finally:
                if profile is not None:
                    profile.disable()
        if profile is not None:
            rec.firings += sum(c.firings for c in result.thread_counters.values())
            rec.sweeps += result.sweeps
        return result

    patches.set(MulticoreSystem, "run", traced_run)

    run_in_worker = parallel._run_in_worker

    @functools.wraps(run_in_worker)
    def dumping_run_in_worker(*args, **kwargs):
        try:
            return run_in_worker(*args, **kwargs)
        finally:
            if rec.active:
                rec.own()
                rec.dump()

    # Pool tasks pickle the function by its module path, so the forked
    # worker resolves this name to the wrapper it inherited.
    patches.set(parallel, "_run_in_worker", dumping_run_in_worker)
