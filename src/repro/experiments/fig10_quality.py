"""Figure 10: jpeg PSNR and mp3 SNR vs MTBE, with frame-size scaling.

Per app, the mean (and deviation) quality over seeds at each MTBE of the
quality ladder; mp3 additionally sweeps the 2x/4x/8x frame sizes of
Section 5.4 (larger frames -> fewer realignments but more data corrupted
per misalignment).  Paper anchors: jpeg holds 20 dB and mp3 7.6 dB at
MTBE = 512k (error-free baselines 35.6 dB and 9.4 dB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.experiments.aggregate import summarize
from repro.experiments.parallel import ParallelRunner, RunSpec
from repro.experiments.plotting import quality_chart
from repro.experiments.report import format_table
from repro.experiments.runner import SimulationRunner
from repro.experiments.store import resolve_store
from repro.experiments.sweeps import (
    FRAME_SCALES,
    MTBE_LADDER_QUALITY,
    seed_list,
)
from repro.quality.metrics import QUALITY_CAP_DB
from repro.experiments.registry import register_figure


@dataclass(frozen=True)
class QualityPoint:
    mtbe: int
    frame_scale: int
    mean_db: float
    stdev_db: float
    #: Bootstrap 95% CI bounds over the per-seed qualities; NaN when the
    #: point was built without aggregation (legacy construction).
    ci_lo_db: float = math.nan
    ci_hi_db: float = math.nan

    def label(self, digits: int = 2) -> str:
        """``"20.12 ±0.85"`` when a CI is attached, else the bare mean."""
        if math.isnan(self.ci_lo_db) or math.isnan(self.ci_hi_db):
            return f"{self.mean_db:.{digits}f}"
        halfwidth = (self.ci_hi_db - self.ci_lo_db) / 2.0
        return f"{self.mean_db:.{digits}f} ±{halfwidth:.{digits}f}"


def run_app(
    app_name: str,
    scale: float = 1.0,
    n_seeds: int = 3,
    frame_scales: tuple[int, ...] = (1,),
    ladder: tuple[int, ...] = MTBE_LADDER_QUALITY,
    runner: SimulationRunner | None = None,
    jobs: int | None = None,
    cache=None,
    fault_model: str = "bit_flip",
) -> list[QualityPoint]:
    """Quality per (frame scale, MTBE), one engine fan-out for the grid."""
    runner = runner or ParallelRunner(
        scale=scale, jobs=jobs, store=resolve_store(cache=cache)
    )
    seeds = seed_list(n_seeds)
    grid = [
        (frame_scale, mtbe) for frame_scale in frame_scales for mtbe in ladder
    ]
    records = runner.run_specs(
        [
            RunSpec(
                app=app_name,
                mtbe=mtbe,
                seed=seed,
                frame_scale=frame_scale,
                fault_model=fault_model,
            )
            for frame_scale, mtbe in grid
            for seed in seeds
        ]
    )
    points = []
    for index, (frame_scale, mtbe) in enumerate(grid):
        chunk = records[index * n_seeds : (index + 1) * n_seeds]
        stats = summarize(
            [record.quality_db for record in chunk], cap=QUALITY_CAP_DB
        )
        points.append(
            QualityPoint(
                mtbe,
                frame_scale,
                stats.mean,
                stats.stdev,
                ci_lo_db=stats.ci_lo,
                ci_hi_db=stats.ci_hi,
            )
        )
    return points


def run(
    scale: float = 1.0,
    n_seeds: int = 3,
    ladder: tuple[int, ...] = MTBE_LADDER_QUALITY,
    mp3_frame_scales: tuple[int, ...] = FRAME_SCALES,
    runner: SimulationRunner | None = None,
    jobs: int | None = None,
    cache=None,
) -> dict[str, list[QualityPoint]]:
    runner = runner or ParallelRunner(
        scale=scale, jobs=jobs, store=resolve_store(cache=cache)
    )
    return {
        "jpeg": run_app("jpeg", n_seeds=n_seeds, ladder=ladder, runner=runner),
        "mp3": run_app(
            "mp3",
            n_seeds=n_seeds,
            frame_scales=mp3_frame_scales,
            ladder=ladder,
            runner=runner,
        ),
    }


def _series_table(points: list[QualityPoint]) -> str:
    scales = sorted({p.frame_scale for p in points})
    ladder = sorted({p.mtbe for p in points})
    headers = ["MTBE"] + [f"{s}x frames" for s in scales]
    rows = []
    for mtbe in ladder:
        row: list[object] = [f"{mtbe // 1000}k"]
        for s in scales:
            match = [p for p in points if p.mtbe == mtbe and p.frame_scale == s]
            row.append(match[0].label() if match else "-")
        rows.append(row)
    return format_table(headers, rows)


def main(
    scale: float = 1.0, n_seeds: int = 3, jobs: int | None = None, cache=None
) -> str:
    runner = ParallelRunner(
        scale=scale, jobs=jobs, store=resolve_store(cache=cache)
    )
    results = run(n_seeds=n_seeds, runner=runner)
    jpeg_base = runner.app("jpeg").baseline_quality()
    mp3_base = runner.app("mp3").baseline_quality()
    text = (
        f"Figure 10a: jpeg PSNR vs MTBE, mean ±95% CI over seeds "
        f"(error-free baseline {jpeg_base:.1f} dB; paper 35.6 dB)\n"
    )
    text += _series_table(results["jpeg"])
    text += (
        f"\n\nFigure 10b: mp3 SNR vs MTBE and frame sizes (error-free baseline "
        f"{mp3_base:.1f} dB; paper 9.4 dB)\n"
    )
    text += _series_table(results["mp3"])
    mp3_series = {}
    for point in results["mp3"]:
        mp3_series.setdefault(f"{point.frame_scale}x frames", {})[point.mtbe] = (
            point.mean_db
        )
    text += "\n\n" + quality_chart(mp3_series, y_label="mp3 SNR (dB)", cap=mp3_base)
    return text


def paper_targets():
    from repro.experiments.fidelity import (
        Measurement,
        PaperTarget,
        ToleranceBand,
    )

    return (
        PaperTarget(
            name="fig10.jpeg_quality_512k",
            figure="fig10",
            description="jpeg holds 20 dB at MTBE 512k",
            paper_value=20.0,
            unit="dB",
            band=ToleranceBand(pass_within=3.0, warn_within=6.0),
            measure=Measurement("mean_quality_db", app="jpeg", mtbe=512_000.0),
            source="Section 6.2 / Fig. 10a",
        ),
        PaperTarget(
            name="fig10.mp3_snr_512k",
            figure="fig10",
            description="mp3 holds 7.6 dB at MTBE 512k",
            paper_value=7.6,
            unit="dB",
            band=ToleranceBand(pass_within=3.0, warn_within=6.0),
            measure=Measurement("mean_quality_db", app="mp3", mtbe=512_000.0),
            source="Section 6.2 / Fig. 10b",
        ),
        PaperTarget(
            name="fig10.jpeg_baseline",
            figure="fig10",
            description="jpeg error-free baseline PSNR",
            paper_value=35.6,
            unit="dB",
            band=ToleranceBand(pass_within=5.0, warn_within=10.0),
            measure=Measurement("app_baseline_db", app="jpeg"),
            source="Section 6.2 / Fig. 10a (baseline)",
        ),
        PaperTarget(
            name="fig10.mp3_baseline",
            figure="fig10",
            description="mp3 error-free baseline SNR",
            paper_value=9.4,
            unit="dB",
            band=ToleranceBand(pass_within=3.0, warn_within=6.0),
            measure=Measurement("app_baseline_db", app="mp3"),
            source="Section 6.2 / Fig. 10b (baseline)",
        ),
    )


register_figure(
    "fig10",
    module=__name__,
    description="jpeg/mp3 quality vs MTBE",
    paper_section="Section 6.2 / Fig. 10",
)


if __name__ == "__main__":  # pragma: no cover
    print(main())
