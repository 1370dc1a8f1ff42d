"""Machine-speed normalisation for the benchmark's timings.

On a shared 2-core machine the same work runs at one of a few speeds, each
lasting from seconds to over a minute.  The 340 reductions of one run took
610-650 ms on every one of its 40 repeats, where other seeds' sets took
320-360 ms at their fastest, so the fastest repeat cannot recover from a
slow spell that outlasts the run.  The ratio of a case's time to a
reference loop timed beside it can: across 20-s windows that ratio varied
by 2 % (IQR/median) where the raw median varied by 16 %.

``Speed`` times ``reference_loop`` (NumPy on small arrays plus interpreted
arithmetic, like quadred's hot paths, and none of quadred's code) between
cases, at most every PROBE_EVERY_S.  A case that started after probe k is
scaled by REFERENCE_S over the mean of probes k and k+1, which gives its
time at the speed where the loop takes REFERENCE_S.
"""

from __future__ import annotations

import time

import numpy as np

# The loop's time on the machine the benchmark was defined on, at its
# fastest: the normalised timings are seconds at that speed.
REFERENCE_S = 7.5e-4
PROBE_EVERY_S = 0.05

_GRID = np.linspace(0.1, 5.0, 64)
_clock = time.perf_counter


def reference_loop() -> float:
    total = 0.0
    for i in range(200):
        total += float((np.exp(-_GRID * (1 + i % 7)) * np.log(_GRID)).sum())
        total += (i * 0.5) ** 0.5
    return total


def probe_seconds() -> float:
    """Time the loop twice and keep the faster, which sheds interrupts."""
    fastest = float("inf")
    for _ in range(2):
        start = _clock()
        reference_loop()
        fastest = min(fastest, _clock() - start)
    return fastest


class Speed:
    """Reference-loop probes of one run, in the order they were taken."""

    def __init__(self):
        self.samples: list[float] = []
        self._next = 0.0
        self.probe()

    @property
    def last(self) -> int:
        """Index of the latest probe: record it when a case starts."""
        return len(self.samples) - 1

    def probe(self) -> None:
        self.samples.append(probe_seconds())
        self._next = _clock() + PROBE_EVERY_S

    def mark(self) -> None:
        """Between cases: probe if the latest probe is PROBE_EVERY_S old."""
        if _clock() >= self._next:
            self.probe()

    def normalise(self, seconds: float, before: int) -> float:
        """A time measured after probe `before`, at the reference speed."""
        after = min(before + 1, self.last)
        return seconds * REFERENCE_S / (0.5 * (self.samples[before] + self.samples[after]))
