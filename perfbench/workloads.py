"""The benchmark's three workloads.

* ``dsp-guarded`` and ``media-ladder`` make serial :func:`repro.api.run`
  calls with no store, over a grid of cells whose simulation seeds derive
  from the workload seed.  Apps and their error-free references are built
  in set-up, never inside a timed pass.
* ``paper-reduced`` runs the ``repro paper`` pipeline at the reduced tier on
  a fresh store, resumes it over the same store, and writes the bundle.
  It keeps the tier's own seeds, on which the grading is defined.

A pass returns a :class:`Pass`: its wall time, one :class:`Run` per
simulated run, and the failures its correctness checks found.  Times are
in reference seconds (see ``calibrate.py``): the calibration kernel runs
before every simulated run and after the last, outside the timed spans.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import calibrate

DSP_APPS = ("complex-fir", "audiobeamformer", "channelvocoder", "fft")
MEDIA_APPS = ("jpeg", "mp3")
PROTECTIONS = ("ppu_only", "commguard")


@dataclass(frozen=True)
class Cell:
    app: str
    protection: str
    mtbe: str
    seed: int


@dataclass
class Run:
    """One simulated run: its identity, reference seconds and record."""

    key: object  # the Cell or RunSpec the run executed
    seconds: float
    record: object


@dataclass
class Pass:
    wall_s: float
    #: Wall time in plain host seconds, kernel samples excluded.
    host_wall_s: float
    attempted: int
    runs: list[Run]
    failures: list[str] = field(default_factory=list)
    #: Workload-specific facts (store hits, grading counts, phase times).
    facts: dict = field(default_factory=dict)

    def digest(self) -> str:
        """sha256 over every record, in grid order."""
        from repro.experiments.cache import record_to_dict

        payload = json.dumps(
            [record_to_dict(run.record) for run in self.runs], sort_keys=True
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def check_record(label: str, record) -> list[str]:
    """A run must finish without hanging, with a quality that is finite or
    +inf and never NaN."""
    problems = []
    if record.hung:
        problems.append(f"{label}: run hung")
    quality = record.quality_db
    if math.isnan(quality) or quality == -math.inf:
        problems.append(f"{label}: quality is {quality}")
    return problems


class ApiWorkload:
    """Serial ``repro.api.run`` calls over a fixed grid of cells."""

    def __init__(self, name: str, scale: float, cells: list[Cell], precise: list[Cell]):
        self.name = name
        self.scale = scale
        self.cells = cells
        #: Cells the traced run re-executes with ``exec_mode="precise"``.
        self.precise_cells = precise
        self.apps: dict = {}

    @property
    def seeds(self) -> dict:
        """Simulation seeds by ``app/mtbe`` (shared by both protections)."""
        seeds: dict = {}
        for cell in self.cells:
            cell_seeds = seeds.setdefault(f"{cell.app}/{cell.mtbe}", [])
            if cell.seed not in cell_seeds:
                cell_seeds.append(cell.seed)
        return seeds

    def setup(self) -> None:
        """Build every app and its error-free reference."""
        from repro.apps.registry import build_app

        for app in dict.fromkeys(cell.app for cell in self.cells):
            self.apps[app] = build_app(app, scale=self.scale)
            self.apps[app].reference_signal()

    def _run(self, cell: Cell, exec_mode: str = "fast"):
        from repro import api
        from repro.experiments.options import EngineOptions

        options = EngineOptions(scale=self.scale, exec_mode=exec_mode)
        return api.run(
            self.apps[cell.app], cell.protection, mtbe=cell.mtbe, seed=cell.seed, options=options
        ).record

    def run_pass(self, workdir: Path) -> Pass:
        records, seconds, failures = [], [], []
        kernel_s = [calibrate.sample()]
        for cell in self.cells:
            before = time.perf_counter()
            try:
                record = self._run(cell)
            except Exception as exc:  # a raising run counts as failed
                record = None
                failures.append(f"{cell}: {type(exc).__name__}: {exc}")
            seconds.append(time.perf_counter() - before)
            kernel_s.append(calibrate.sample())
            records.append(record)
            if record is not None:
                failures.extend(check_record(str(cell), record))
        ref_s = calibrate.scale_runs(seconds, kernel_s)
        runs = [Run(cell, s, r) for cell, s, r in zip(self.cells, ref_s, records) if r is not None]
        return Pass(sum(ref_s), sum(seconds), len(self.cells), runs, failures)

    @staticmethod
    def partner(cell: Cell) -> Cell | None:
        """The PPU-only cell matching a CommGuard cell."""
        if cell.protection != "commguard":
            return None
        return replace(cell, protection="ppu_only")

    def check_precise(self, reference: Pass) -> tuple[int, list[str]]:
        """Re-run the precise subset; records must be bit-identical to the
        fast path's (determinism contract 5)."""
        fast = {run.key: run.record for run in reference.runs}
        failures = []
        for cell in self.precise_cells:
            if self._run(cell, exec_mode="precise") != fast.get(cell):
                failures.append(f"{cell}: precise record differs from fast")
        return len(self.precise_cells), failures


def _cell_seeds(seed: int, keys: list, per_key: int) -> dict:
    rng = random.Random(seed)
    return {key: [rng.randrange(1_000_000) for _ in range(per_key)] for key in keys}


def dsp_guarded(seed: int, tiny: bool) -> ApiWorkload:
    mtbes = ("64k", "1024k")
    seeds = _cell_seeds(seed, [(a, m) for a in DSP_APPS for m in mtbes], 1)
    cells = [
        Cell(app, protection, mtbe, seeds[app, mtbe][0])
        for app in DSP_APPS
        for mtbe in mtbes
        for protection in PROTECTIONS
    ]
    precise = [c for c in cells if (c.app, c.protection, c.mtbe) in {
        ("fft", "commguard", "64k"), ("complex-fir", "commguard", "1024k")}]
    return ApiWorkload("dsp-guarded", 0.02 if tiny else 0.25, cells, precise)


def media_ladder(seed: int, tiny: bool) -> ApiWorkload:
    mtbes = ("64k", "256k", "1024k", "4096k")
    seeds = _cell_seeds(seed, [(a, m) for a in MEDIA_APPS for m in mtbes], 2)
    cells = [
        Cell(app, protection, mtbe, cell_seed)
        for app in MEDIA_APPS
        for mtbe in mtbes
        for cell_seed in seeds[app, mtbe]
        for protection in PROTECTIONS
    ]
    precise = [
        next(c for c in cells if (c.app, c.protection, c.mtbe) == key)
        for key in (("jpeg", "commguard", "4096k"), ("mp3", "ppu_only", "64k"))
    ]
    return ApiWorkload("media-ladder", 0.05 if tiny else 1.0, cells, precise)


class PaperWorkload:
    """``run_paper`` on a fresh store, a resume pass, then ``write_bundle``."""

    name = "paper-reduced"

    def __init__(self, tiny: bool, jobs: int):
        self.tier = "smoke" if tiny else "reduced"
        self.jobs = jobs
        self.passes = 0

    @property
    def seeds(self) -> dict:
        from repro.experiments.fidelity import resolve_tier

        return {"tier": self.tier, "tier_seeds": list(range(resolve_tier(self.tier).seeds))}

    def setup(self) -> None:
        """Imports, and a wrapper that makes each pool worker time the
        calibration kernel before every run and log it with the run's
        unrounded wall seconds (the store keeps them rounded to ms)."""
        import repro.experiments.paper  # noqa: F401
        from repro.experiments import parallel

        run_in_worker = parallel._run_in_worker

        @functools.wraps(run_in_worker)
        def timed_run_in_worker(index, spec, *args, **kwargs):
            kernel_s = calibrate.sample()
            outcome = run_in_worker(index, spec, *args, **kwargs)
            with open(self.walls_dir / f"{os.getpid()}.txt", "a") as log:
                log.write(f"{index} {outcome[4]!r} {kernel_s!r}\n")
            return outcome

        # Pool tasks pickle the function by its module path, so the forked
        # workers resolve this name to the wrapper.
        parallel._run_in_worker = timed_run_in_worker

    def _worker_walls(self) -> tuple[dict[int, float], float, list[float]]:
        """Reference seconds of each pool run by grid position, those runs'
        total host seconds, and every kernel sample of the pass.  Each
        worker's runs are scaled by the kernel samples that worker took
        before each of its runs."""
        walls, host_s, kernels = {}, 0.0, []
        for log in self.walls_dir.glob("*.txt"):
            lines = [line.split() for line in log.read_text().splitlines()]
            seconds = [float(run_s) for _, run_s, _ in lines]
            samples = [float(kernel_s) for _, _, kernel_s in lines]
            kernels += samples
            host_s += sum(seconds)
            ref_s = calibrate.scale_runs(seconds, samples)
            walls.update((int(index), s) for (index, _, _), s in zip(lines, ref_s))
        return walls, host_s, kernels

    def run_pass(self, workdir: Path) -> Pass:
        from repro.experiments.fidelity import Verdict
        from repro.experiments.options import EngineOptions
        from repro.experiments.paper import run_paper, write_bundle
        from repro.experiments.store import RunStore

        self.passes += 1
        pass_dir = workdir / f"paper-{self.passes}"
        self.walls_dir = pass_dir / "walls"
        self.walls_dir.mkdir(parents=True)
        store = RunStore(pass_dir / "store.sqlite", fallback=False)
        options = EngineOptions(jobs=self.jobs, cache=False, store=store)
        start = time.perf_counter()
        first = run_paper(self.tier, options=options)
        first_done = time.perf_counter()
        resume = run_paper(self.tier, options=options)
        resume_done = time.perf_counter()
        write_bundle(first, pass_dir / "bundle")
        done = time.perf_counter()
        walls, run_host_s, kernels = self._worker_walls()
        # The workers' kernel samples ran inside the timed span.  The wall
        # is scaled by the runs' own duration-weighted factor: the mean of
        # all kernel samples over-weights the many short runs.
        host_wall = done - start - sum(kernels) / self.jobs
        wall = host_wall * (sum(walls.values()) / run_host_s if walls else 1.0)

        report = first.report
        total = report.total_specs
        failures = []
        if report.execution.store_hits != 0 or report.execution.executed != total:
            failures.append(f"first pass: {report.execution.store_hits} store hits, "
                            f"{report.execution.executed}/{total} executed")
        if resume.report.execution.store_hits != total or resume.report.execution.executed != 0:
            failures.append(f"resume pass: {resume.report.execution.store_hits}/{total} store hits")
        counts = report.counts()
        for verdict in (Verdict.FAIL, Verdict.SKIP):
            if counts[verdict]:
                failures.append(f"{counts[verdict]} target(s) graded {verdict.value}")
        failures.extend(f"spec failed: {f.summary()}" for f in first.stats.failures)

        rows = store.campaign_runs(report.campaign)
        runs = []
        for position, row in rows:
            # Runs the parent executed itself (a one-worker host) have only
            # the store's rounded provenance, in host seconds.
            seconds = walls.get(position, row.provenance["wall_seconds"])
            runs.append(Run(row.spec, seconds, row.record))
            failures.extend(check_record(f"spec {position}", row.record))
        if len(rows) != total:
            failures.append(f"{len(rows)} of {total} specs stored")
        store.close()
        shutil.rmtree(pass_dir)
        return Pass(wall, host_wall, total, runs, failures, facts={
            "jobs": self.jobs,
            "specs": total,
            "resume_hits": resume.report.execution.store_hits,
            "run_specs_s": report.execution.wall_seconds,
            "run_paper_s": first_done - start,
            "resume_s": resume_done - first_done,
            "bundle_s": done - resume_done,
            "busy_share": run_host_s / (self.jobs * report.execution.wall_seconds),
            "targets": {v.value: n for v, n in counts.items()},
        })

    @staticmethod
    def partner(spec):
        """The PPU-only spec matching a CommGuard spec of the grid."""
        from repro.machine.protection import ProtectionLevel

        if spec.protection is not ProtectionLevel.COMMGUARD:
            return None
        return replace(spec, protection=ProtectionLevel.PPU_ONLY)

    def check_precise(self, reference: Pass) -> tuple[int, list[str]]:
        """Re-run the grid's first CommGuard and first PPU-only spec with
        ``exec_mode="precise"``; records must equal the stored ones."""
        from repro.experiments.fidelity import resolve_tier
        from repro.experiments.runner import SimulationRunner
        from repro.machine.protection import ProtectionLevel

        runner = SimulationRunner(scale=resolve_tier(self.tier).app_scale)
        failures, checked = [], 0
        for level in (ProtectionLevel.COMMGUARD, ProtectionLevel.PPU_ONLY):
            run = next(r for r in reference.runs if r.key.protection is level)
            checked += 1
            if runner.execute_spec(replace(run.key, exec_mode="precise")) != run.record:
                failures.append(f"{run.key}: precise record differs from stored")
        return checked, failures


def make(name: str, seed: int, tiny: bool, jobs: int):
    if name == "dsp-guarded":
        return dsp_guarded(seed, tiny)
    if name == "media-ladder":
        return media_ladder(seed, tiny)
    if name == "paper-reduced":
        return PaperWorkload(tiny, jobs)
    raise ValueError(f"unknown workload {name!r}")


#: Nominal seconds of one pass of any workload on a 2-vCPU x86-64 host; a
#: run makes ``max(1, seconds // NOMINAL_PASS_S)`` passes, so the number of
#: samples is fixed by ``--seconds`` alone.
NOMINAL_PASS_S = 12
