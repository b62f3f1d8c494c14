"""The accuracy tracker's window statistics as a walk over the window:
the test oracle.

``repro.telemetry.accuracy.AccuracyTracker`` computes each pair's error
terms once, when the pair enters its window, keeps them in deques that
evict with the window, and sums those.  This module is the loop it
replaced, which recomputes every term from the window's pairs on every
call: obviously the definition, and so what the tracker must agree with,
float for float.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple


def window_stats(window: Iterable[Tuple[float, Optional[float], float]]) -> dict:
    """MAPE / sMAPE / signed bias / coverage over one rolling window of
    ``(predicted, inflated, actual)`` pairs."""
    ape: List[float] = []
    sape: List[float] = []
    bias: List[float] = []
    covered = 0
    coverable = 0
    for predicted, inflated, actual in window:
        if actual > 0:
            ape.append(abs(predicted - actual) / actual)
            bias.append((predicted - actual) / actual)
        denom = abs(predicted) + abs(actual)
        if denom > 0:
            sape.append(2.0 * abs(predicted - actual) / denom)
        if inflated is not None:
            coverable += 1
            if actual <= inflated:
                covered += 1
    return {
        "mape_pct": 100.0 * sum(ape) / len(ape) if ape else None,
        "smape_pct": 100.0 * sum(sape) / len(sape) if sape else None,
        "bias_pct": 100.0 * sum(bias) / len(bias) if bias else None,
        "coverage_pct": (
            100.0 * covered / coverable if coverable else None
        ),
    }
