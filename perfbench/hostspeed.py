"""Host-speed calibration: a fixed kernel timed right before and after each op.

The speed of a shared host drifts by tens of percent within seconds and
from one minute to the next, and every op slows down with it.
`HostSpeed.sample()` times a fixed pure-Python kernel (tuple-keyed dict
updates, complex arithmetic and float formatting, the kind of work the
bellsieve layers do) three times back to back and keeps the shortest time,
which an interrupt is unlikely to reach.  With one sample taken just before
and one just after each op, `scale_times` divides the op's time by the
host's slowdown around it: the mean of the two samples over `KERNEL_REF_S`.
The result is the op's time on a host where the kernel takes `KERNEL_REF_S`.
The kernel does not touch bellsieve, so a change in the program moves the op
times and not the scale.
"""
from __future__ import annotations

import statistics
import time
from typing import List, Sequence

# kernel time on the reference host: a 2-core Intel Xeon VM at 2.0 GHz,
# Python 3.11.7, in its faster state
KERNEL_REF_S = 4.0e-4
REPEATS = 3  # kernel runs per sample


def kernel() -> int:
    terms = {}
    z = 0.6 + 0.3j
    for i in range(1000):
        key = (i % 29, i % 7)
        z = z * (0.8 - 0.5j) + 0.1
        terms[key] = terms.get(key, 0j) + z * z.conjugate()
    return len(",".join(f"{a.real:.9g}" for a in terms.values()))


class HostSpeed:
    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best)

    def slowdown(self) -> float:
        """Median host slowdown over all samples, for display."""
        return statistics.median(self.samples) / KERNEL_REF_S

    def scale_times(self, times: Sequence[float]) -> List[float]:
        """Times on the reference host; samples 2i and 2i+1 bracket time i."""
        if len(self.samples) != 2 * len(times):
            raise ValueError("a kernel sample before and after each time is needed")
        return [2.0 * KERNEL_REF_S * t / (self.samples[2 * i] + self.samples[2 * i + 1])
                for i, t in enumerate(times)]
