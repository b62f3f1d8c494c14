"""The few statistics the benchmark reports, in one place."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear interpolation."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def tail_percentile(samples: int, want: float = 95.0) -> float:
    """The highest percentile, at most ``want``, that has ten of
    ``samples`` beyond it; the median when none above it does."""
    if samples <= 0:
        return 50.0
    return max(50.0, min(want, 100.0 * (1.0 - 10.0 / samples)))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` the way the driver computes them."""
    if len(values) < 2:
        only = float(values[0]) if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0
