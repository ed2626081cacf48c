"""Host-speed calibration.

Other tenants of the host can slow every op down by a third for minutes at a
time, which is more than any bound the benchmark could hold. A short fixed
kernel of the same kind of work as ltumatch (Fraction sums, and integer row
updates like a pivot) is timed between ops, and every time the benchmark
reports is scaled by NOMINAL_S / (the kernel's time next to it): a time at
the speed where the kernel takes NOMINAL_S. The kernel is the benchmark's own
code, so a change to ltumatch moves the scaled times exactly as it moves the
raw ones; the raw figures are printed too.
"""
from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# The kernel's time on an uncontended Intel Xeon vCPU at 2.1 GHz, CPython 3.11.
NOMINAL_S = 0.002
# Sample at most this often, and calibrate an op with the samples this close to it.
EVERY_S = 0.1
WINDOW_S = 0.5


def kernel() -> int:
    rows = [[Fraction(i * j + 1, i + 2 * j + 3) for j in range(16)] for i in range(16)]
    total = Fraction(0)
    for row in rows:
        total += sum(a * b for a, b in zip(row, reversed(row)))
    table = [[(i * 7 + j * 13) % 17 + 1 for j in range(24)] for i in range(24)]
    for k in range(12):
        pivot, base = table[k][k], table[k]
        for i, row in enumerate(table):
            if i != k:
                f = row[k]
                table[i] = [(v * pivot - f * w) % 1_000_000_007 for v, w in zip(row, base)]
    return total.denominator + table[0][0]


class Calibrator:
    def __init__(self):
        self.ends: list[float] = []
        self.times: list[float] = []

    def sample(self) -> None:
        # Without the collector, which would also time a sweep of the
        # benchmark's own heap.
        gc.disable()
        try:
            start = perf_counter()
            kernel()
            end = perf_counter()
        finally:
            gc.enable()
        self.ends.append(end)
        self.times.append(end - start)

    def maybe_sample(self) -> None:
        if not self.ends or perf_counter() - self.ends[-1] >= EVERY_S:
            self.sample()

    def scale(self, start: float, seconds: float) -> float:
        """`seconds` measured from `start`, scaled to the nominal speed by the
        median of the samples within WINDOW_S of the interval (or the nearest)."""
        near = [
            t for end, t in zip(self.ends, self.times)
            if start - WINDOW_S <= end <= start + seconds + WINDOW_S
        ]
        if not near:
            nearest = min(range(len(self.ends)), key=lambda i: abs(self.ends[i] - start))
            near = [self.times[nearest]]
        return seconds * NOMINAL_S / statistics.median(near)

    def median_ms(self) -> float:
        return statistics.median(self.times) * 1e3
