"""Run-loop benchmarks: the precise oracle vs the fast path.

Times the same runs under the two ``SystemConfig`` execution modes — the
precise oracle (legacy round-robin loop, per-word transfers) and the fast
path (event-driven ready set, batched transfers, quiet spans; the
default) — over jpeg, mp3 and the fft DSP kernel at two MTBEs under all
four protection levels, plus the reduced Figure 10 quality campaign.

Each (app, protection, MTBE) cell is one pytest-benchmark *group*, so

    pytest benchmarks/bench_scheduler.py --benchmark-only \
        --benchmark-group-by=group

shows the two configurations side by side per cell.  The CI artifact
``BENCH_simulator.json`` is produced by ``scripts/record_bench.py`` (no
pytest needed); this file is the interactive view of the same matrix.
"""

import pytest

from repro.core.config import CommGuardConfig
from repro.experiments.sweeps import MTBE_LADDER_QUALITY
from repro.machine.protection import ProtectionLevel
from repro.machine.system import SystemConfig, run_program

#: The two execution modes: the oracle and the default fast path.
CONFIGS = {
    "precise": SystemConfig(exec_mode="precise"),
    "fast": SystemConfig(),
}

BENCH_APPS = ("jpeg", "mp3", "fft")
BENCH_MTBES = (64_000, 512_000)


def _cells():
    """(app, protection, mtbe) grid; ERROR_FREE ignores the MTBE axis."""
    cells = []
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


def _cell_id(cell):
    app_name, level, mtbe = cell
    rate = "errfree" if mtbe is None else f"{mtbe // 1000}k"
    return f"{app_name}-{level.value}-{rate}"


@pytest.mark.parametrize("config_name", list(CONFIGS))
@pytest.mark.parametrize("cell", _cells(), ids=_cell_id)
def test_scheduler_cell(benchmark, runner, cell, config_name):
    app_name, level, mtbe = cell
    app = runner.app(app_name)
    benchmark.group = _cell_id(cell)
    result = benchmark(
        lambda: run_program(
            app.program,
            level,
            mtbe=mtbe,
            seed=0,
            system_config=CONFIGS[config_name],
        )
    )
    assert result.committed_instructions > 0


@pytest.mark.parametrize("config_name", list(CONFIGS))
def test_fig10_reduced_campaign(benchmark, runner, config_name):
    """The Figure 10 grid at 1 seed: jpeg plus mp3 over the quality ladder."""
    grid = [("jpeg", 1, mtbe) for mtbe in MTBE_LADDER_QUALITY]
    grid += [
        ("mp3", frame_scale, mtbe)
        for frame_scale in (1, 2)
        for mtbe in MTBE_LADDER_QUALITY
    ]
    config = CONFIGS[config_name]
    benchmark.group = "fig10-reduced-campaign"

    def campaign():
        total = 0
        for app_name, frame_scale, mtbe in grid:
            app = runner.app(app_name)
            result = run_program(
                app.program,
                ProtectionLevel.COMMGUARD,
                mtbe=mtbe,
                seed=0,
                commguard_config=CommGuardConfig(frame_scale=frame_scale),
                system_config=config,
            )
            total += result.committed_instructions
        return total

    assert benchmark(campaign) > 0
