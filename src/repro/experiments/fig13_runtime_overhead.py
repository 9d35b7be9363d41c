"""Figure 13: execution-time overhead of CommGuard, varying frame sizes.

The paper measures real hardware with lfence-serialized frame boundaries;
our simulator charges the equivalent costs — frame-boundary pipeline stalls
plus header pushes/pops — into the cycle estimate (DESIGN.md §3).  Overhead
is (guarded cycles - baseline cycles) / baseline cycles for error-free
runs, per app and frame scale, plus the geometric mean.  Paper anchors:
mean ~1%, worst (audiobeamformer, complex-fir) < 4%, decreasing slightly
with larger frames.
"""

from __future__ import annotations

from repro.apps.registry import APP_ORDER
from repro.experiments.parallel import ParallelRunner, RunSpec
from repro.experiments.report import format_table
from repro.experiments.runner import SimulationRunner, geometric_mean
from repro.experiments.store import resolve_store
from repro.experiments.sweeps import FRAME_SCALES
from repro.machine.protection import ProtectionLevel
from repro.experiments.registry import register_figure


def run(
    scale: float = 1.0,
    apps: tuple[str, ...] = APP_ORDER,
    frame_scales: tuple[int, ...] = FRAME_SCALES,
    runner: SimulationRunner | None = None,
    jobs: int | None = None,
    cache=None,
) -> dict[str, dict[int, float]]:
    """Returns {app: {frame_scale: overhead fraction}} + "GMean"."""
    runner = runner or ParallelRunner(
        scale=scale, jobs=jobs, store=resolve_store(cache=cache)
    )
    baseline_specs = [
        RunSpec(app=app, protection=ProtectionLevel.ERROR_FREE) for app in apps
    ]
    guarded_grid = [(app, fs) for app in apps for fs in frame_scales]
    guarded_specs = [
        RunSpec(
            app=app,
            protection=ProtectionLevel.COMMGUARD,
            mtbe=None,
            frame_scale=frame_scale,
        )
        for app, frame_scale in guarded_grid
    ]
    records = runner.run_specs(baseline_specs + guarded_specs)
    baselines = {
        app: record.execution_time for app, record in zip(apps, records[: len(apps)])
    }
    results: dict[str, dict[int, float]] = {app: {} for app in apps}
    for (app, frame_scale), record in zip(guarded_grid, records[len(apps) :]):
        baseline = baselines[app]
        results[app][frame_scale] = (record.execution_time - baseline) / baseline
    results["GMean"] = {
        fs: geometric_mean([results[app][fs] for app in apps])
        for fs in frame_scales
    }
    return results


def main(scale: float = 1.0, jobs: int | None = None, cache=None) -> str:
    results = run(scale=scale, jobs=jobs, cache=cache)
    frame_scales = sorted(next(iter(results.values())))
    headers = ["app"] + [f"{fs}x frames %" for fs in frame_scales]
    rows = [
        [app] + [100.0 * series[fs] for fs in frame_scales]
        for app, series in results.items()
    ]
    text = "Figure 13: CommGuard execution-time overhead (error-free runs)\n"
    text += format_table(headers, rows)
    text += "\n(paper: mean ~1%, worst < 4%, shrinking with larger frames)"
    return text


def paper_targets():
    from repro.experiments.fidelity import (
        Comparison,
        Measurement,
        PaperTarget,
        ToleranceBand,
    )

    return (
        PaperTarget(
            name="fig13.overhead_gmean",
            figure="fig13",
            description="GMean execution-time overhead ~1%",
            paper_value=0.01,
            unit="fraction",
            band=ToleranceBand(pass_within=0.01, warn_within=0.03),
            measure=Measurement("runtime_overhead_gmean"),
            source="Section 6.4 / Fig. 13 (mean ~1%)",
        ),
        PaperTarget(
            name="fig13.audiobeamformer_overhead",
            figure="fig13",
            description="worst-case overhead stays under 4%",
            paper_value=0.04,
            unit="fraction",
            band=ToleranceBand(pass_within=0.0, warn_within=0.02),
            measure=Measurement("runtime_overhead", app="audiobeamformer"),
            comparison=Comparison.BELOW,
            source="Section 6.4 / Fig. 13 (worst < 4%)",
        ),
    )


register_figure(
    "fig13",
    module=__name__,
    description="runtime overhead",
    paper_section="Section 6.4 / Fig. 13",
)


if __name__ == "__main__":  # pragma: no cover
    print(main())
