"""Summary statistics of the benchmark: tail percentile and agreement digits."""

from __future__ import annotations

import math

# Percentile ladder in units of 0.01 %, lowest first.
TAIL_LEVELS = (5000, 7500, 8000, 9000, 9500, 9800, 9900, 9950, 9980, 9990, 9995, 9998, 9999)
MIN_BEYOND = 10
AGREE_CAP = 16.0


def rank(level: int, n: int) -> int:
    """1-based nearest rank of a level (0.01 % units) among n sorted samples."""
    return -(-level * n // 10000)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) at the highest ladder level that
    leaves at least MIN_BEYOND samples beyond it."""
    n = len(values)
    ordered = sorted(values)
    best = None
    for level in TAIL_LEVELS:
        beyond = n - rank(level, n)
        if beyond < MIN_BEYOND:
            break
        best = level, beyond
    if best is None:
        raise ValueError(f"{n} samples leave fewer than {MIN_BEYOND} beyond the median")
    level, beyond = best
    return level / 100.0, ordered[rank(level, n) - 1], beyond


def rel_diff(value: complex, reference: complex) -> float:
    """The verification engine's convention: |a - b| / max(1, |b|)."""
    return abs(value - reference) / max(1.0, abs(reference))


def agree_digits(worst_rel: float) -> float:
    """-log10 of the worst relative disagreement, capped at AGREE_CAP."""
    if worst_rel <= 0.0:
        return AGREE_CAP
    return min(AGREE_CAP, -math.log10(worst_rel))
