"""Forecast-accuracy metrics used in Section 5 of the paper.

The paper's headline metric is the *mean relative error* (MRE): the mean
of ``|predicted - actual| / actual`` over all evaluation points, which it
reports as a percentage (e.g. SPAR achieves 10.4% on B2W at tau = 60).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import PredictionError


def _paired(actual: Sequence[float], predicted: Sequence[float]):
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if a.shape != p.shape:
        raise PredictionError(
            f"actual and predicted must have the same shape "
            f"({a.shape} vs {p.shape})"
        )
    if a.size == 0:
        raise PredictionError("cannot compute error of empty series")
    return a, p


def mean_relative_error(
    actual: Sequence[float], predicted: Sequence[float]
) -> float:
    """MRE as a fraction (multiply by 100 for the paper's percentages).

    Points where the actual load is zero are excluded, since relative
    error is undefined there.
    """
    a, p = _paired(actual, predicted)
    mask = a > 0
    if not np.any(mask):
        raise PredictionError("all actual values are zero; MRE undefined")
    return float(np.mean(np.abs(p[mask] - a[mask]) / a[mask]))
