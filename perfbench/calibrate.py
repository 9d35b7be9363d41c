"""Host-speed calibration.

On a shared host the speed of the CPU drifts by tens of percent within
minutes, so raw host times of the same work do not repeat from one run to
the next.  The benchmark therefore times a fixed pure-Python kernel (it
imports nothing from the program, so no change to the program moves it)
right before every timed run and once after the last, and reports every
host time in *reference seconds*: measured seconds scaled by
``REFERENCE_S / kernel seconds``, with the kernel time taken next to the
measured work.  A reference second is a second on a host where the kernel
takes ``REFERENCE_S``.
"""

from __future__ import annotations

import statistics
import time

#: Kernel seconds on the reference host; about what it takes on a
#: 2-vCPU x86-64 VM running CPython 3.11.
REFERENCE_S = 0.02
KERNEL_STEPS = 16_000


def kernel(steps: int = KERNEL_STEPS) -> int:
    """Integer bit work, small-dict stores and list traffic, like the
    simulator's inner loops."""
    acc = 0
    table = {}
    buf = []
    for i in range(steps):
        word = (i * 2654435761) & 0xFFFFFFFF
        parity = 0
        rest = word
        while rest:
            rest &= rest - 1
            parity ^= 1
        table[i & 255] = parity
        buf.append(word ^ parity)
        if len(buf) > 64:
            buf.clear()
        acc += parity
    return acc


def sample() -> float:
    """Seconds one kernel run takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


#: Kernel samples used on each side of a run.
WINDOW = 3


def scale_runs(seconds: list[float], kernel_s: list[float]) -> list[float]:
    """Reference seconds of consecutive runs, where ``kernel_s[i]`` was
    taken right before run ``i`` (and ``kernel_s[i + 1]`` right after it,
    when there is one).  Each run is scaled by the median of the nearest
    ``WINDOW`` samples on each side, so one disturbed sample cannot move
    a run."""
    return [
        s * REFERENCE_S / statistics.median(kernel_s[max(0, i - WINDOW + 1):i + WINDOW + 1])
        for i, s in enumerate(seconds)
    ]
