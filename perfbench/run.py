"""Benchmark of the CommGuard simulator and its reproduction pipeline.

    python3 perfbench/run.py --workload dsp-guarded --seed 1 --seconds 30 --trace 0

Runs one workload (see ``perfbench/workloads.py``) for a seed and prints a
table of metrics, each with its unit and sample count, then, as the last
line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` makes a separate
traced run that reports its per-layer metrics (``perfbench/tracing.py``).
``perfbench/design.json`` records which layer metric should move which
end-to-end metric on which workload.

End-to-end host times are reported in reference seconds
(``perfbench/calibrate.py``), which cancels most of a shared host's drift
in CPU speed.  Every run checks
the program's outputs: no run hangs or raises, every
quality is finite or +inf, and every pass yields the same records digest.
The program is imported from ``src/`` of the checkout; files the run
writes stay under ``.perfbench_tmp/`` and are removed when it ends.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (self-test size)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="do the workload's set-up only, then exit")
    return parser.parse_args(argv)


# -- statistics ------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples beyond it,
    and that percentile (never below the median, for small samples)."""
    ordered = sorted(values)
    index = max(len(ordered) - 11, len(ordered) // 2)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def cg_over_ppu(runs, partner) -> tuple[float, int]:
    """Geomean over matched cells of CommGuard host time over the PPU-only
    run of the same app, MTBE and seed (median over passes for each)."""
    by_key: dict = {}
    for run in runs:
        by_key.setdefault(run.key, []).append(run.seconds)
    ratios = [
        statistics.median(by_key[key]) / statistics.median(by_key[other])
        for key in by_key
        if (other := partner(key)) is not None and other in by_key
    ]
    return geomean(ratios), len(ratios)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- isolation -------------------------------------------------------------------


def pin_environment(workdir: Path, jobs: int) -> None:
    """Keep every store, cache and temp file of the run inside *workdir*,
    so no developer store or ``.repro_cache/`` can serve hits."""
    (workdir / "tmp").mkdir(parents=True)
    os.environ["REPRO_STORE"] = str(workdir / "default-store.sqlite")
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "cache")
    os.environ["REPRO_JOBS"] = str(jobs)
    os.environ["TMPDIR"] = str(workdir / "tmp")
    # Store provenance runs `git describe`: keep git inside the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    os.environ["GIT_CONFIG_NOSYSTEM"] = "1"
    os.environ["GIT_CONFIG_GLOBAL"] = os.devnull
    import tempfile

    tempfile.tempdir = str(workdir / "tmp")


class BuildCounter:
    """Counts app builds by wrapping the registry's builders; spans them
    too when a tracing recorder is active."""

    def __init__(self, rec=None) -> None:
        from repro.apps.registry import APP_BUILDERS

        self.count = 0
        for name, builder in list(APP_BUILDERS.items()):
            APP_BUILDERS[name] = self._wrap(builder, rec)

    def _wrap(self, builder, rec):
        def build(*args, **kwargs):
            self.count += 1
            if rec is None or not rec.active:
                return builder(*args, **kwargs)
            with rec.span("build_app"):
                return builder(*args, **kwargs)

        return build


def setup_probes(args, n: int) -> list[float]:
    """Reference seconds from process launch to the end of set-up, measured
    on *n* fresh processes that do the workload's set-up only."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    seconds, kernel_s = [], [calibrate.sample()]
    for _ in range(n):
        start = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        seconds.append(time.perf_counter() - start)
        kernel_s.append(calibrate.sample())
    return calibrate.scale_runs(seconds, kernel_s)


# -- runs --------------------------------------------------------------------------


def check_passes(passes) -> list[str]:
    """Every pass must reproduce the first pass's records exactly."""
    first = passes[0]
    failures = []
    for number, other in enumerate(passes[1:], start=2):
        for a, b in zip(first.runs, other.runs):
            if a.key != b.key or a.record != b.record:
                failures.append(f"pass {number}: record of {b.key} differs from pass 1")
        if len(first.runs) != len(other.runs):
            failures.append(f"pass {number}: {len(other.runs)} runs vs {len(first.runs)}")
    return failures


def end_to_end(wl, passes, probes, jobs) -> dict:
    """Metrics of a run with tracing off: name -> (value, samples, note)."""
    runs = [run for p in passes for run in p.runs]
    seconds = [run.seconds for run in runs]
    walls = [p.wall_s for p in passes]
    instructions = sum(run.record.committed_instructions for run in runs)
    tail_s, percentile = tail(seconds)
    ratio, pairs = cg_over_ppu(runs, wl.partner)
    return {
        "setup_s": (statistics.median(probes), len(probes), ""),
        "wall_s": (statistics.median(walls), len(walls), ""),
        "runs_per_s": (len(runs) / sum(walls), len(runs), ""),
        "sim_mips": (instructions / sum(seconds) / 1e6, len(runs), ""),
        "run_s_geomean": (geomean(seconds), len(seconds),
                          f"median {statistics.median(seconds):.4g} s"),
        "run_s_tail": (tail_s, len(seconds), f"p{percentile:.1f}"),
        "cg_over_ppu_x": (ratio, pairs, "geomean over matched cells"),
        "peak_rss_mb": (peak_rss_mb(), 1, f"self + children, workers={jobs}"),
    }


def layer_metrics(setup, traced, traced_pass, baseline) -> tuple[dict, dict, dict]:
    """Metrics of the traced run (name -> (value, samples, note)), and the
    in-run layer table of all runs and of CommGuard runs."""
    spans = traced["spans"]
    setup_spans = setup["spans"]

    def span_total(name, phase=spans):
        return phase.get(name, [0, 0.0, 0.0])[1]

    def span_self(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    layers: dict = {}
    for reduced in traced["profiles"].values():
        for layer, (self_s, calls) in reduced["layers"].items():
            entry = layers.setdefault(layer, [0.0, 0])
            entry[0] += self_s
            entry[1] += calls
    in_run_s = sum(v[0] for v in layers.values()) or 1.0
    cg_layers = traced["profiles"]["commguard"]["layers"]
    cg_total = sum(v[0] for v in cg_layers.values()) or 1.0
    cg_core = sum(v[0] for k, v in cg_layers.items() if k.startswith("core."))
    precise = sum(r["precise_firings"] for r in traced["profiles"].values())
    firings = traced["firings"]
    records = [run.record for run in traced_pass.runs]
    facts = traced_pass.facts
    wall = traced_pass.host_wall_s
    n_runs = len(records)

    def layer(name):
        return layers.get(name, [0.0, 0])

    metrics = {
        "apps.build_s": (span_total("build_app", setup_spans) + span_total("build_app"), n_runs, ""),
        "apps.work_self_s": (layer("apps")[0], n_runs, "in-run self time"),
        "apps.work_share": (layer("apps")[0] / in_run_s, n_runs, "of in-run self time"),
        "streamit.self_share": (layer("streamit")[0] / in_run_s, n_runs, "of in-run self time"),
        "machine.system.build_s": (span_total("MulticoreSystem.build"), n_runs, ""),
        "machine.thread.self_s": (layer("machine.thread")[0], n_runs, ""),
        "machine.thread.firings": (firings, n_runs, ""),
        "machine.thread.quiet_share": (1 - precise / firings if firings else 0.0, firings,
                                       "firings off the per-word path"),
        "machine.scheduler.self_s": (layer("machine.scheduler")[0], n_runs, ""),
        "machine.scheduler.sweeps": (traced["sweeps"], n_runs, ""),
        "machine.faults.self_s": (layer("machine.faults")[0], n_runs, ""),
        "machine.faults.errors_injected": (sum(r.errors_injected for r in records), n_runs, ""),
        "machine.queues.self_s": (layer("machine.queues")[0], n_runs, ""),
        "core.ecc.share": (layer("core.ecc")[0] / in_run_s, n_runs, "of in-run self time"),
        "core.cg_share": (cg_core / cg_total, n_runs, "core.* share of CommGuard runs"),
        "core.alignment_manager.pads": (sum(r.padded_items for r in records), n_runs, ""),
        "core.alignment_manager.discards": (sum(r.discarded_items for r in records), n_runs, ""),
        "core.subops": (round(sum(r.subop_ratios["total"] * r.committed_instructions
                                  for r in records)), n_runs, "Table 3 total"),
        "quality.score_s": (span_self("BenchmarkApp.quality"), n_runs, "self time"),
        "quality.reference_s": (span_total("BenchmarkApp.reference_signal", setup_spans)
                                + span_total("BenchmarkApp.reference_signal"), n_runs, ""),
        "experiments.store.share": (span_total("RunStore") / wall, 1, "of pass wall"),
        "experiments.store.resume_share": (facts.get("resume_s", 0.0) / wall, 1, "of pass wall"),
        "experiments.store.hits": (facts.get("resume_hits", 0), 1, "resume pass"),
        "experiments.fidelity.grade_share": (
            (facts.get("run_paper_s", 0.0) - facts.get("run_specs_s", 0.0)) / wall, 1, "of pass wall"),
        "experiments.fidelity.targets_pass": (facts.get("targets", {}).get("pass", 0), 1, ""),
        "experiments.fidelity.targets_fail": (facts.get("targets", {}).get("fail", 0), 1, ""),
        "experiments.paper.bundle_share": (facts.get("bundle_s", 0.0) / wall, 1, "of pass wall"),
        "trace_overhead_x": (wall / baseline.host_wall_s, 2, "traced pass wall / untraced pass wall"),
        "experiments.parallel.busy_share": (facts.get("busy_share", 1.0), n_runs,
                                            f"workers={facts.get('jobs', 1)}"),
    }
    for name in ("core.ecc", "core.queue_manager", "core.alignment_manager",
                 "core.header_inserter", "core.guard"):
        metrics[f"{name}.self_s"] = (layer(name)[0], n_runs, "")
        metrics[f"{name}.calls"] = (layer(name)[1], n_runs, "")
    return metrics, layers, cg_layers


def print_layers(title: str, layers: dict) -> None:
    total = sum(v[0] for v in layers.values()) or 1.0
    ranked = sorted(layers.items(), key=lambda kv: -kv[1][0])
    print(f"# {title}: largest layer {ranked[0][0] if ranked else '-'}")
    for name, (self_s, calls) in ranked:
        print(f"#   {name:<24} {self_s:10.4f} s {100 * self_s / total:6.2f} %  {calls:>12} calls")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    jobs = min(2, os.cpu_count() or 1)
    scratch = ROOT / ".perfbench_tmp"
    workdir = scratch / f"run-{os.getpid()}"
    pin_environment(workdir, jobs)
    try:
        return measure(args, workdir, jobs)
    finally:
        for child in multiprocessing.active_children():  # left by a failed pool
            child.terminate()
            child.join()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it


def measure(args, workdir: Path, jobs: int) -> int:
    import workloads

    wl = workloads.make(args.workload, args.seed, args.tiny, jobs)
    if args.setup_probe:
        wl.setup()
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not args.trace:
        # Probe first, while this process is still small.
        probes = setup_probes(args, 2 if args.tiny else SETUP_PROBES)
    n_passes = max(1, args.seconds // workloads.NOMINAL_PASS_S)
    api_workload = isinstance(wl, workloads.ApiWorkload)

    rec = None
    if args.trace:
        import tracing
        import repro

        rec = tracing.Recorder(workdir, tracing.LayerMap(Path(repro.__file__).parent))
        patches = tracing.Patches()
        tracing.install(rec, patches)
    builds = BuildCounter(rec)
    if rec is not None:
        rec.active = True
    wl.setup()
    built = builds.count

    failures: list[str] = []
    attempted = 0
    if not args.trace:
        passes = [wl.run_pass(workdir) for _ in range(n_passes)]
        declared = spec["end_to_end"]
        metrics = end_to_end(wl, passes, probes, jobs)
    else:
        setup = rec.take()
        rec.active = False
        baseline = wl.run_pass(workdir)
        rec.active = rec.profiling = True
        traced_pass = wl.run_pass(workdir)
        rec.active = rec.profiling = False
        traced = tracing.merge([rec.take()] + rec.worker_summaries())
        patches.restore()
        checked, precise_failures = wl.check_precise(baseline)
        attempted += checked
        failures += precise_failures
        passes = [baseline, traced_pass]
        declared = spec["per_layer"]
        metrics, layers, cg_layers = layer_metrics(setup, traced, traced_pass, baseline)
    if api_workload and builds.count != built:
        failures.append(f"{builds.count - built} app build(s) inside the timed region")
    attempted += sum(p.attempted for p in passes)
    failures += [f for p in passes for f in p.failures] + check_passes(passes)

    print(f"# workload {args.workload} seed {args.seed} passes {len(passes)} trace {args.trace}")
    print(f"# host nproc={os.cpu_count()} python={platform.python_version()} workers={jobs}"
          f" machine={platform.machine()}")
    print(f"# seeds {json.dumps(wl.seeds, sort_keys=True)}")
    kinds = ["untraced", "traced"] if args.trace else ["untraced"] * len(passes)
    for number, (p, kind) in enumerate(zip(passes, kinds), start=1):
        print(f"# pass {number} ({kind}): wall {p.wall_s:.3f} ref s ({p.host_wall_s:.3f} host s),"
              f" {len(p.runs)} runs, digest {p.digest()}")
    if args.trace:
        print_layers("in-run self time, CommGuard runs", cg_layers)
        print_layers("in-run self time, all runs", layers)
    for failure in failures:
        print(f"# FAILED {failure}")
    result = {}
    for entry in declared:
        value, samples, note = metrics[entry["name"]]
        print(f"# {entry['name']:<36} {value:>14.6g} {entry['unit']:<10} n={samples:<5} {note}")
        result[entry["name"]] = {"value": value, "unit": entry["unit"]}
    failed = min(attempted, len(failures))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
