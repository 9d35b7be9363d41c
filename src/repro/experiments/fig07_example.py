"""Figure 7: an example jpeg run with CommGuard at MTBE = 512k.

The paper decodes its full image with 16 padding/discard operations and a
PSNR of 20.2 dB, annotating the 8-pixel-high output rows where CommGuard
realigned.  We report the realignment-event counts, the frames (block rows)
they landed in, and the run's PSNR.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.options import EngineOptions
from repro.experiments.parallel import ParallelRunner, RunSpec
from repro.experiments.report import db_or_errorfree, format_table
from repro.experiments.runner import SimulationRunner
from repro.experiments.registry import register_figure


@dataclass(frozen=True)
class Fig7Result:
    psnr_db: float
    pad_events: int
    discard_events: int
    padded_items: int
    discarded_items: int
    errors_injected: int


def run(
    mtbe: float = 512_000,
    seed: int = 0,
    runner: SimulationRunner | None = None,
    options: EngineOptions | None = None,
) -> Fig7Result:
    runner = runner or ParallelRunner.from_options(options, scale=2.0)
    (record,) = runner.run_specs([RunSpec(app="jpeg", mtbe=mtbe, seed=seed)])
    return Fig7Result(
        psnr_db=record.quality_db,
        pad_events=record.pad_events,
        discard_events=record.discard_events,
        padded_items=record.padded_items,
        discarded_items=record.discarded_items,
        errors_injected=record.errors_injected,
    )


def main(seed: int = 0, options: EngineOptions | None = None) -> str:
    result = run(seed=seed, options=options)
    text = "Figure 7: example jpeg run with CommGuard (MTBE = 512k)\n"
    text += format_table(
        ["metric", "value"],
        [
            ["PSNR", db_or_errorfree(result.psnr_db)],
            ["padding episodes", result.pad_events],
            ["discard episodes", result.discard_events],
            ["padded items", result.padded_items],
            ["discarded items", result.discarded_items],
            ["errors injected", result.errors_injected],
        ],
    )
    text += "\n(paper: 16 pad/discard operations, PSNR 20.2 dB on its larger image)"
    return text


def paper_targets():
    from repro.experiments.fidelity import (
        Measurement,
        PaperTarget,
        ToleranceBand,
    )

    return (
        PaperTarget(
            name="fig7.jpeg_psnr_512k",
            figure="fig7",
            description="example jpeg run with CommGuard at MTBE 512k",
            paper_value=20.2,
            unit="dB",
            band=ToleranceBand(pass_within=4.0, warn_within=8.0),
            measure=Measurement("mean_quality_db", app="jpeg", mtbe=512_000.0),
            source="Section 6 / Fig. 7 (PSNR 20.2 dB on the paper's image)",
        ),
    )


register_figure(
    "fig7",
    module=__name__,
    description="example jpeg run, pad/discards",
    paper_section="Section 6 / Fig. 7",
)


if __name__ == "__main__":  # pragma: no cover
    print(main())
