"""The host's speed, read from a fixed reference kernel run beside the items.

The benchmark runs on hosts whose cores are shared with other tenants.
Their load slows pure-Python code by up to about 2x, in bursts of a few
milliseconds whose density drifts over minutes, so the same items can
take 20-30% longer in one run than in another a few minutes later.
The worker runs ``kernel`` once after every timed item, and the time
metrics, set-up included, are scaled by ``REF_MS`` over the kernel's
mean time in the measured run: they read as the times on a host where
the kernel takes ``REF_MS``.
The kernel is exact ``Fraction`` arithmetic in plain loops, like
majorkit's own, on fixed data, and it uses nothing of majorkit, so no
change to the program moves it.  The unscaled times and the scale go in
the full report.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter_ns

# The kernel's mean time, Python 3.11 on a 2-vCPU Xeon VM.
REF_MS = 2.0

_N = 14
_M = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i + j) % 4) for j in range(_N)]
      for i in range(_N)]
_V = [Fraction(1 + i % 3, 2 + i % 5) for i in range(_N)]


def kernel() -> list[Fraction]:
    """Two normalised exact mat-vec products on fixed data."""
    v = _V
    for _ in range(2):
        v = [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in _M]
        total = sum(v, Fraction(0))
        v = [a / total for a in v]
    return v


def sample() -> int:
    """One timed run of the kernel, in ns."""
    t0 = perf_counter_ns()
    kernel()
    return perf_counter_ns() - t0


def scale(samples_ns: list[int]) -> float:
    """The factor that turns this run's times into reference-host times."""
    return REF_MS * 1e6 / statistics.fmean(samples_ns)
