#!/usr/bin/env python3
"""Record the simulator exec-mode benchmark into ``BENCH_simulator.json``.

Times identical runs under the two execution modes — the precise oracle
(``SystemConfig(exec_mode="precise")``: legacy round-robin loop, per-word
transfers) and the fast path (the default: event-driven ready set,
batched transfers, quiet spans) — and writes one machine-readable report
at the repo root.  The matrix is all six apps (jpeg, mp3 and the four
DSP apps) at two MTBEs under all four protection levels, plus the
reduced Figure 10 quality campaign (the sweep the speedup target is
defined on) and its high-MTBE rungs alone, the sparse-error regime the
quiet span is built for.

Usage::

    PYTHONPATH=src python scripts/record_bench.py [--scale 0.25]
        [--repeats 2] [--out BENCH_simulator.json] [--check]

``--check`` exits non-zero when the fast path is slower than precise on
the campaign, falls under 1.2x over precise on the high-MTBE campaign,
or is slower than precise summed over the CommGuard cells of the DSP
apps whose every firing crosses a frame (complex-fir, channelvocoder,
audiobeamformer) — CI runs with it so a fast-path regression fails the
build.
Timings are best-of-``--repeats`` wall clock; both modes produce
bit-identical results (enforced by
``tests/machine/test_exec_mode_equivalence.py``), so only time differs.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.config import CommGuardConfig  # noqa: E402
from repro.experiments.runner import SimulationRunner  # noqa: E402
from repro.experiments.sweeps import MTBE_LADDER_QUALITY  # noqa: E402
from repro.machine.protection import ProtectionLevel  # noqa: E402
from repro.machine.system import SystemConfig, run_program  # noqa: E402

CONFIGS = {
    "precise": SystemConfig(exec_mode="precise"),
    "fast": SystemConfig(),  # exec_mode="fast" is the default
}

BENCH_APPS = (
    "jpeg",
    "mp3",
    "fft",
    "complex-fir",
    "channelvocoder",
    "audiobeamformer",
)
BENCH_MTBES = (64_000, 512_000)

#: The fast-path target is defined on the sparse-error rungs: at MTBE >=
#: 1024k nearly every firing sits inside an error-quiet span.
HIGH_MTBE_FLOOR = 1_024_000

#: Minimum fast-over-precise campaign speedup ``--check`` accepts.
FAST_PATH_CHECK_FLOOR = 1.2

#: Apps that cross a frame boundary on every firing: their CommGuard cells
#: time the frame-crossing fast path (bulk header pops, header codebook).
FRAME_CROSSING_APPS = ("complex-fir", "channelvocoder", "audiobeamformer")
#: Minimum fast-over-precise speedup ``--check`` accepts on those cells,
#: summed.
FRAME_CROSSING_CHECK_FLOOR = 1.0


def grid_cells() -> list[tuple[str, ProtectionLevel, int | None]]:
    """(app, protection, mtbe) matrix; ERROR_FREE ignores the MTBE axis."""
    cells: list[tuple[str, ProtectionLevel, int | None]] = []
    for app_name in BENCH_APPS:
        cells.append((app_name, ProtectionLevel.ERROR_FREE, None))
        for level in (
            ProtectionLevel.PPU_ONLY,
            ProtectionLevel.PPU_RELIABLE_QUEUE,
            ProtectionLevel.COMMGUARD,
        ):
            for mtbe in BENCH_MTBES:
                cells.append((app_name, level, mtbe))
    return cells


def campaign_points() -> list[tuple[str, int, int]]:
    """The reduced Figure 10 grid: jpeg plus mp3 frame sizes, 1 seed."""
    points = [("jpeg", 1, mtbe) for mtbe in MTBE_LADDER_QUALITY]
    points += [
        ("mp3", frame_scale, mtbe)
        for frame_scale in (1, 2)
        for mtbe in MTBE_LADDER_QUALITY
    ]
    return points


def time_call(fn, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        before = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - before)
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_simulator.json"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if the fast path misses its floors over precise",
    )
    args = parser.parse_args(argv)

    runner = SimulationRunner(scale=args.scale)
    for app_name in BENCH_APPS:
        runner.app(app_name)  # build once, outside the timed region

    grid = []
    for app_name, level, mtbe in grid_cells():
        app = runner.app(app_name)
        timings = {}
        for config_name, config in CONFIGS.items():
            timings[config_name] = time_call(
                lambda: run_program(
                    app.program, level, mtbe=mtbe, seed=0, system_config=config
                ),
                args.repeats,
            )
        speedup = timings["precise"] / timings["fast"]
        rate = "error-free" if mtbe is None else f"{mtbe // 1000}k"
        print(
            f"{app_name:15s} {level.value:22s} {rate:>10s}  "
            f"precise {timings['precise']:7.3f}s  fast {timings['fast']:7.3f}s  "
            f"{speedup:5.2f}x"
        )
        grid.append(
            {
                "app": app_name,
                "protection": level.value,
                "mtbe": mtbe,
                "precise_s": round(timings["precise"], 4),
                "fast_s": round(timings["fast"], 4),
                "speedup": round(speedup, 3),
            }
        )

    def campaign(config: SystemConfig, points) -> None:
        for app_name, frame_scale, mtbe in points:
            run_program(
                runner.app(app_name).program,
                ProtectionLevel.COMMGUARD,
                mtbe=mtbe,
                seed=0,
                commguard_config=CommGuardConfig(frame_scale=frame_scale),
                system_config=config,
            )

    campaign_s = {
        name: time_call(lambda: campaign(config, campaign_points()), args.repeats)
        for name, config in CONFIGS.items()
    }
    campaign_speedup = campaign_s["precise"] / campaign_s["fast"]
    print(
        f"\nfig10 reduced campaign ({len(campaign_points())} runs): "
        f"precise {campaign_s['precise']:.3f}s  fast {campaign_s['fast']:.3f}s  "
        f"{campaign_speedup:.2f}x"
    )

    high_points = [p for p in campaign_points() if p[2] >= HIGH_MTBE_FLOOR]
    fast_path_s = {
        name: time_call(lambda: campaign(config, high_points), args.repeats)
        for name, config in CONFIGS.items()
    }
    fast_path_speedup = fast_path_s["precise"] / fast_path_s["fast"]
    print(
        f"fast path, high-MTBE campaign ({len(high_points)} runs, "
        f"MTBE >= {HIGH_MTBE_FLOOR // 1000}k): "
        f"precise {fast_path_s['precise']:.3f}s  "
        f"fast {fast_path_s['fast']:.3f}s  {fast_path_speedup:.2f}x"
    )

    crossing_cells = [
        cell
        for cell in grid
        if cell["app"] in FRAME_CROSSING_APPS
        and cell["protection"] == ProtectionLevel.COMMGUARD.value
    ]
    crossing_s = {
        name: sum(cell[f"{name}_s"] for cell in crossing_cells)
        for name in CONFIGS
    }
    crossing_speedup = crossing_s["precise"] / crossing_s["fast"]
    print(
        f"frame-crossing CommGuard cells ({len(crossing_cells)} cells, "
        f"{', '.join(FRAME_CROSSING_APPS)}): "
        f"precise {crossing_s['precise']:.3f}s  fast {crossing_s['fast']:.3f}s  "
        f"{crossing_speedup:.2f}x"
    )

    speedups = [cell["speedup"] for cell in grid]
    report = {
        "benchmark": "simulator-exec-mode",
        "configs": {
            "precise": "oracle: round-robin sweep loop, per-word transfers",
            "fast": "event-driven ready set, batched transfers, quiet spans "
            "(default)",
        },
        "scale": args.scale,
        "repeats": args.repeats,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "grid": grid,
        "campaign": {
            "name": "fig10-reduced",
            "runs": len(campaign_points()),
            "precise_s": round(campaign_s["precise"], 4),
            "fast_s": round(campaign_s["fast"], 4),
            "speedup": round(campaign_speedup, 3),
        },
        "fast_path": {
            "name": "fig10-reduced-high-mtbe",
            "mtbe_floor": HIGH_MTBE_FLOOR,
            "runs": len(high_points),
            "precise_s": round(fast_path_s["precise"], 4),
            "fast_s": round(fast_path_s["fast"], 4),
            "speedup": round(fast_path_speedup, 3),
        },
        "frame_crossing": {
            "name": "commguard-dsp-cells",
            "apps": list(FRAME_CROSSING_APPS),
            "cells": len(crossing_cells),
            "precise_s": round(crossing_s["precise"], 4),
            "fast_s": round(crossing_s["fast"], 4),
            "speedup": round(crossing_speedup, 3),
        },
        "summary": {
            "geomean_speedup": round(
                math.exp(sum(math.log(s) for s in speedups) / len(speedups)), 3
            ),
            "min_speedup": round(min(speedups), 3),
            "max_speedup": round(max(speedups), 3),
            "campaign_speedup": round(campaign_speedup, 3),
            "fast_path_speedup": round(fast_path_speedup, 3),
            "frame_crossing_speedup": round(crossing_speedup, 3),
        },
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    failed = False
    if args.check and campaign_speedup < 1.0:
        print(
            "FAIL: fast path slower than precise on the fig10 campaign",
            file=sys.stderr,
        )
        failed = True
    if args.check and fast_path_speedup < FAST_PATH_CHECK_FLOOR:
        print(
            f"FAIL: fast path under {FAST_PATH_CHECK_FLOOR}x over precise "
            "on the high-MTBE campaign",
            file=sys.stderr,
        )
        failed = True
    if args.check and crossing_speedup < FRAME_CROSSING_CHECK_FLOOR:
        print(
            "FAIL: fast path slower than precise on the CommGuard cells of "
            f"{', '.join(FRAME_CROSSING_APPS)}",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
