"""Host-speed calibration for the benchmark's timings.

The host's speed drifts by up to 1.5x, over seconds and over minutes, as
other machines load the cores and caches it shares (README.md has the
measurements).  So a fixed pure-Python loop is timed before and after every
timed call, and the call's time is divided by its speed factor, the mean of
those two loop times over CAL_REF_S: the metrics read as seconds at the
reference speed, and the raw seconds are printed next to them.  CAL_REF_S is
the loop's time on a 2-core x86-64 host in its fast state; it only sets the
scale.

This module imports nothing but ``time``, so that the set-up probe can load
it into a fresh interpreter without loading anything ``polysieve.cli`` needs.
"""

from time import perf_counter

CAL_ITERATIONS = 15_000
CAL_REF_S = 0.0025


def calibration_seconds() -> float:
    start = perf_counter()
    table = {}
    for i in range(CAL_ITERATIONS):
        k = i & 1023
        table[k] = table.get(k, 0) + i * i % 7
    return perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """seconds at the reference speed, given the loop times around the call."""
    return seconds * 2 * CAL_REF_S / (before + after)
