"""Host-speed scaling of measured times.

The benchmark runs on shared hosts whose speed for Python code swings by
up to 2x within minutes, as other tenants come and go; raw times of the same
code then spread far more than any regression worth catching. The clock
below runs a fixed calibration kernel between jobs, at most every
CALIBRATE_EVERY_S. The kernel is pure Python doing what the library spends
its time on, tuple-keyed dict inserts and big-integer Fraction arithmetic,
but none of the library's code. A job's time is scaled by REFERENCE_S over
the median kernel time of the samples around it, so it reads as the time the
job takes on a host where the kernel takes REFERENCE_S. The library cannot make the kernel faster or
slower, so a change to the library moves scaled times as it moves raw ones.
The benchmark prints the raw figures beside the scaled ones.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.004
CALIBRATE_EVERY_S = 0.1
SMOOTHING = 3  # kernel samples taken on each side of a job


def kernel() -> tuple[int, Fraction]:
    seen = {}
    state = [0] * 16
    for i in range(1500):
        state[i % 16] += i % 7
        seen[tuple(state)] = i
    # Relaxations with a dyadic ratio, as in a cycle-ratio search.
    ratio = Fraction(12345678901, 2 ** 35)
    dist = [Fraction(0)] * 8
    for i in range(600):
        u, v = i % 8, (i * 3 + 1) % 8
        candidate = dist[u] + i % 50 - ratio * (i % 3)
        dist[v] = candidate if candidate > dist[v] else candidate / 2
    return len(seen), dist[0]


class ScaledClock:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end, kernel seconds)
        for _ in range(3):  # let the interpreter specialise the kernel first
            kernel()
        self.calibrate()

    def calibrate(self) -> None:
        """Time the kernel once."""
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.samples.append((end, end - start))

    def mark(self) -> int:
        """Index of the last sample before a job, calibrating first if the
        last sample is older than CALIBRATE_EVERY_S."""
        if perf_counter() - self.samples[-1][0] >= CALIBRATE_EVERY_S:
            self.calibrate()
        return len(self.samples) - 1

    def factor(self, mark: int) -> float:
        """Scale factor for a job that started after sample ``mark``: the
        median of up to SMOOTHING samples on each side of the job, at least
        one of them taken after it ended."""
        window = self.samples[max(0, mark + 1 - SMOOTHING):mark + 1 + SMOOTHING]
        return REFERENCE_S / sorted(d for _, d in window)[len(window) // 2]

    def median_kernel_s(self) -> float:
        ordered = sorted(d for _, d in self.samples)
        return ordered[len(ordered) // 2]
