"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts with the load of
other tenants: the same fixed work takes up to 1.6x longer in some phases,
which last from seconds to minutes, and process CPU time stretches just as
much (the process is not waiting, it runs slower).  So a raw wall time
mostly measures the machine's phase.  The benchmark therefore times a fixed
calibration loop right before and right after each timed call and rescales
the call to the speed at which the loop takes REFERENCE_S:

    scaled = wall * REFERENCE_S / mean(loop time before, loop time after)

A change to hpnc does not touch the loop, so its gains and losses pass
through the scaling unchanged; only the machine's phase is divided out.
"""

from __future__ import annotations

import time

import numpy as np

# about the loop's median time on the 2-core 2.0 GHz VM the baseline was taken on
REFERENCE_S = 0.060


def _loop() -> int:
    # the kinds of work hpnc does: numpy float arrays, thresholding and
    # integer matrix products (sim), Python int arithmetic and dict updates
    # (huffman, validation).  Small arrays and no numpy.random, whose lazy
    # import alone is 6 MB: the loop must not raise the worker's peak RSS.
    base = np.arange(1024 * 8, dtype=np.float64).reshape(1024, 8)
    weights = 1 << np.arange(8, dtype=np.int64)
    total = 0
    for k in range(160):
        bits = np.sin(base * (k + 1.37)) < 0.3
        total += int((bits.astype(np.int64) @ weights).sum())
    value = 0
    for i in range(150_000):
        value = ((value << 1) | (i & 1)) & 0xFFFF
    counts: dict[int, int] = {}
    for i in range(30_000):
        counts[i % 977] = counts.get(i % 977, 0) + i
    return total + value + len(counts)


def calibrate() -> float:
    """Seconds the calibration loop takes now."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def rescale(wall: float, before: float, after: float) -> float:
    """`wall` at reference speed, from the loop times bracketing it."""
    return wall * REFERENCE_S / (0.5 * (before + after))
