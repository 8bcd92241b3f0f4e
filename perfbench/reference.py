"""A fixed numpy kernel, independent of gkernel, that tracks the machine's speed.

The machines this benchmark runs on are shared: their speed drifts by tens
of percent over a minute as neighbours load them, which moves every timing
of one run together.  The benchmark times ``kernel`` before and after each
operation, and reports each time scaled by ``NOMINAL_S`` over the mean of
the two kernel times around it: the time the operation would take on a
machine on which the kernel takes ``NOMINAL_S``.  Here the machine switches
between a fast and a slow state about 1.7 times apart, for tens of seconds
at a time; the kernel slows by the same factor, so the switch cancels in
the ratio.  The kernel
mixes the three kinds of work gkernel does: many calls on small arrays (PDE
sweeps), mid-sized arrays (Monte Carlo chunks) and large arrays (full path
histories).  It never changes, so a change to gkernel moves only the
numerator.
"""

from time import perf_counter

import numpy as np

NOMINAL_S = 0.17  # about the kernel's time on a 2 vCPU Xeon at 2.0 GHz


def kernel() -> float:
    """Run the fixed work once; return its wall time in seconds."""
    t0 = perf_counter()
    small = np.linspace(-1.0, 1.0, 257)
    for _ in range(20000):
        small = np.maximum(small * 0.999, -0.5) + 1e-4 * np.abs(small)
    medium = np.linspace(0.0, 1.0, 4000)
    for _ in range(1300):
        medium = np.exp(-medium) + 0.5 * medium
    large = np.linspace(0.0, 1.0, 1_000_000)
    for _ in range(33):
        large = 0.5 * large + 0.25
    float(small[0] + medium[0] + large[0])
    return perf_counter() - t0


class Clock:
    """Times the kernel between pieces of work and scales each piece by it."""

    def __init__(self):
        self.times: list[float] = []

    def tick(self) -> None:
        self.times.append(kernel())

    def scale(self, seconds: float) -> float:
        """Seconds of the work between the last two ticks, at nominal speed."""
        before, after = self.times[-2:]
        return seconds * NOMINAL_S / (0.5 * (before + after))
