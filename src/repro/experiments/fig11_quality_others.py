"""Figure 11: output quality vs MTBE for the four direct-comparison apps.

audiobeamformer, channelvocoder, complex-fir and fft compare error-prone
output against the error-free run (error-free SNR is infinity; runs with no
unmasked error are capped at the conventional ceiling).  complex-fir also
sweeps the 2x/4x/8x frame sizes, as in the paper's Fig. 11c.
"""

from __future__ import annotations

from repro.experiments.fig10_quality import QualityPoint, run_app
from repro.experiments.parallel import ParallelRunner
from repro.experiments.plotting import quality_chart
from repro.experiments.report import format_table
from repro.experiments.runner import SimulationRunner
from repro.experiments.store import resolve_store
from repro.experiments.sweeps import FRAME_SCALES, MTBE_LADDER_QUALITY
from repro.experiments.registry import register_figure

APPS = ("audiobeamformer", "channelvocoder", "complex-fir", "fft")


def run(
    scale: float = 1.0,
    n_seeds: int = 3,
    ladder: tuple[int, ...] = MTBE_LADDER_QUALITY,
    fir_frame_scales: tuple[int, ...] = FRAME_SCALES,
    runner: SimulationRunner | None = None,
    jobs: int | None = None,
    cache=None,
) -> dict[str, list[QualityPoint]]:
    runner = runner or ParallelRunner(
        scale=scale, jobs=jobs, store=resolve_store(cache=cache)
    )
    results = {}
    for app in APPS:
        frame_scales = fir_frame_scales if app == "complex-fir" else (1,)
        results[app] = run_app(
            app,
            n_seeds=n_seeds,
            frame_scales=frame_scales,
            ladder=ladder,
            runner=runner,
        )
    return results


def main(
    scale: float = 1.0, n_seeds: int = 3, jobs: int | None = None, cache=None
) -> str:
    results = run(scale=scale, n_seeds=n_seeds, jobs=jobs, cache=cache)
    sections = []
    for app, points in results.items():
        scales = sorted({p.frame_scale for p in points})
        ladder = sorted({p.mtbe for p in points})
        headers = ["MTBE"] + [f"{s}x" for s in scales]
        rows = []
        for mtbe in ladder:
            row: list[object] = [f"{mtbe // 1000}k"]
            for s in scales:
                match = [
                    p for p in points if p.mtbe == mtbe and p.frame_scale == s
                ]
                row.append(match[0].label() if match else "-")
            rows.append(row)
        sections.append(
            f"Figure 11 ({app}): SNR (dB) vs MTBE, mean ±95% CI over seeds\n"
            + format_table(headers, rows)
        )
    default_series = {
        app: {p.mtbe: p.mean_db for p in points if p.frame_scale == 1}
        for app, points in results.items()
    }
    sections.append(quality_chart(default_series, y_label="SNR (dB)"))
    return "\n\n".join(sections)


def paper_targets():
    """Fig. 11 reports curves, not single numbers; the checkable claim is
    that each DSP app recovers high output quality at the ladder's top
    (MTBE 8192k), where the paper's curves approach error-free."""
    from repro.experiments.fidelity import (
        Comparison,
        Measurement,
        PaperTarget,
        ToleranceBand,
    )

    floors = {
        "audiobeamformer": 10.0,
        "channelvocoder": 15.0,
        "complex-fir": 20.0,
        "fft": 20.0,
    }
    return tuple(
        PaperTarget(
            name=f"fig11.{app.replace('-', '_')}_8192k",
            figure="fig11",
            description=f"{app} recovers at MTBE 8192k",
            paper_value=floor,
            unit="dB",
            band=ToleranceBand(pass_within=5.0, warn_within=10.0),
            measure=Measurement("mean_quality_db", app=app, mtbe=8_192_000.0),
            comparison=Comparison.ABOVE,
            source="Section 6.2 / Fig. 11 (curve shape)",
        )
        for app, floor in floors.items()
    )


register_figure(
    "fig11",
    module=__name__,
    description="4 DSP apps quality",
    paper_section="Section 6.2 / Fig. 11",
)


if __name__ == "__main__":  # pragma: no cover
    print(main())
