"""Shared fixture for the performance benchmarks.

``bench_scheduler.py`` and ``bench_simulator.py`` time the simulator's
execution modes at a reduced input scale.  Paper figures are regenerated by
``repro figure <name>`` and graded by ``repro paper``, not here.  Run with
``pytest benchmarks/ --benchmark-only``.
"""

import pytest

from repro.experiments.runner import SimulationRunner

#: Reduced input scale for benchmark runs.
BENCH_SCALE = 0.25


@pytest.fixture(scope="session")
def runner():
    """One shared app cache across all benchmarks."""
    return SimulationRunner(scale=BENCH_SCALE)
