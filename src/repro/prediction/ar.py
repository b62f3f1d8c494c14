"""Plain auto-regressive (AR) predictor — the simplest baseline in Sec. 5.

AR(p) models ``y(t) = c + sum_{i=1..p} phi_i * y(t-i)``.  Multi-step
forecasts are produced recursively, feeding earlier forecasts back in as
pseudo-observations.  The paper reports that on the B2W load this baseline
reaches 12.5% MRE at tau = 60 minutes, versus 10.4% for SPAR.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import PredictionError
from .base import Predictor, solve_ridge


def fit_ar_coefficients(
    series: np.ndarray, order: int, ridge: float = 1e-8
) -> np.ndarray:
    """Least-squares AR(p) fit; returns ``[c, phi_1 .. phi_p]``.

    Shared by :class:`ArPredictor` and the Hannan-Rissanen first stage of
    the ARMA fit.
    """
    if series.size <= order + 1:
        raise PredictionError(
            f"AR({order}) needs more than {order + 1} points (got {series.size})"
        )
    rows = series.size - order
    design = np.empty((rows, order + 1))
    design[:, 0] = 1.0
    for lag in range(1, order + 1):
        design[:, lag] = series[order - lag : series.size - lag]
    targets = series[order:]
    gram = design.T @ design + ridge * np.eye(order + 1)
    return solve_ridge(gram, design.T @ targets)


class ArPredictor(Predictor):
    """AR(p) baseline predictor.

    Parameters
    ----------
    order:
        number of auto-regressive lags ``p``.
    """

    name = "ar"

    def __init__(self, order: int = 30):
        super().__init__()
        if order < 1:
            raise PredictionError(f"order must be >= 1 (got {order})")
        self.order = self.min_history = order
        self._coeffs: Optional[np.ndarray] = None

    def _fit(self, arr: np.ndarray) -> None:
        self._coeffs = fit_ar_coefficients(arr, self.order)

    @property
    def coefficients(self) -> np.ndarray:
        self._require_fitted()
        assert self._coeffs is not None
        return self._coeffs.copy()

    def _forecasts(
        self, arr: np.ndarray, origins: np.ndarray, horizon: int
    ) -> np.ndarray:
        assert self._coeffs is not None
        intercept = self._coeffs[0]
        # phi_i against y(t - i), newest lag first.
        phi = self._coeffs[1:]
        order = self.order
        # Per origin: the last `order` observations, newest last, then
        # each forecast fed back in as the next pseudo-observation.
        buffer = np.empty((origins.size, order + horizon))
        buffer[:, :order] = arr[origins[:, None] + np.arange(1 - order, 1)]
        # terms[:, 0] = 0 starts the sum and one sequential cumsum adds
        # phi_1 y(t-1) .. phi_p y(t-p) left to right: Python's sum().
        terms = np.zeros((origins.size, order + 1))
        for step in range(horizon):
            np.multiply(phi, buffer[:, step : step + order][:, ::-1],
                        out=terms[:, 1:])
            buffer[:, order + step] = intercept + terms.cumsum(axis=1)[:, -1]
        return buffer[:, order:]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArPredictor(order={self.order}, fitted={self._fitted})"
