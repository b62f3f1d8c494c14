"""ARMA(p, q) baseline predictor (Hannan-Rissanen estimation).

The paper compares SPAR against an auto-regressive moving-average model
(12.2% MRE at tau = 60 minutes on B2W, vs 10.4% for SPAR).  We estimate
the model with the classic two-stage Hannan-Rissanen procedure:

1. fit a long AR model and take its residuals as estimates of the
   unobservable innovations;
2. regress ``y(t)`` on ``p`` lags of ``y`` and ``q`` lags of the estimated
   innovations with least squares.

Forecasting is recursive with future innovations set to zero (their
conditional mean).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import PredictionError
from .ar import fit_ar_coefficients
from .base import Predictor, solve_ridge


class ArmaPredictor(Predictor):
    """ARMA(p, q) predictor fitted by Hannan-Rissanen least squares.

    Parameters
    ----------
    p:
        auto-regressive order.
    q:
        moving-average order.
    long_ar_order:
        order of the first-stage AR used to estimate innovations; defaults
        to ``p + q + 10``.
    """

    name = "arma"

    def __init__(self, p: int = 30, q: int = 10, long_ar_order: Optional[int] = None):
        super().__init__()
        if p < 1 or q < 0:
            raise PredictionError(f"need p >= 1, q >= 0 (got p={p}, q={q})")
        self.p = p
        self.q = q
        self.long_ar_order = long_ar_order or (p + q + 10)
        # Enough to rebuild innovations for the q MA lags.
        self.min_history = self.long_ar_order + max(p, q) + 1
        self.min_fit = self.long_ar_order + p + q + 2
        self._intercept: float = 0.0
        self._phi: Optional[np.ndarray] = None
        self._theta: Optional[np.ndarray] = None
        self._long_ar: Optional[np.ndarray] = None

    def _fit(self, arr: np.ndarray) -> None:
        # Stage 1: long AR for innovation estimates.
        self._long_ar = fit_ar_coefficients(arr, self.long_ar_order)
        innovations = self._innovations(arr, np.arange(arr.size))

        # Stage 2: regress y(t) on lags of y and lags of innovations.
        start = self.long_ar_order + max(self.p, self.q)
        rows = arr.size - start
        design = np.empty((rows, 1 + self.p + self.q))
        design[:, 0] = 1.0
        anchors = np.arange(start, arr.size)
        for lag in range(1, self.p + 1):
            design[:, lag] = arr[anchors - lag]
        for lag in range(1, self.q + 1):
            design[:, self.p + lag] = innovations[anchors - lag]
        targets = arr[anchors]
        gram = design.T @ design + 1e-8 * np.eye(design.shape[1])
        weights = solve_ridge(gram, design.T @ targets)
        self._intercept = float(weights[0])
        self._phi = weights[1 : 1 + self.p]
        self._theta = weights[1 + self.p :]

    def _innovations(self, arr: np.ndarray, anchors: np.ndarray) -> np.ndarray:
        """One-step residuals of the long AR model at ``anchors`` (any
        shape); an anchor before the model's first full lag window has
        none, and reads zero."""
        assert self._long_ar is not None
        order = self.long_ar_order
        coeffs = self._long_ar
        fitted = np.full(anchors.shape, coeffs[0])
        for lag in range(1, order + 1):
            fitted += coeffs[lag] * arr[np.maximum(anchors - lag, 0)]
        return np.where(anchors >= order, arr[anchors] - fitted, 0.0)

    def _forecasts(
        self, arr: np.ndarray, origins: np.ndarray, horizon: int
    ) -> np.ndarray:
        assert self._phi is not None and self._theta is not None
        p, q = self.p, self.q
        n = origins.size
        # Per origin: the last p observations, newest last, then each
        # forecast fed back in; the last q innovations, then zeros (the
        # future innovations' conditional mean).
        values = np.empty((n, p + horizon))
        values[:, :p] = arr[origins[:, None] + np.arange(1 - p, 1)]
        innovations = np.zeros((n, q + horizon))
        if q:
            innovations[:, :q] = self._innovations(
                arr, origins[:, None] + np.arange(1 - q, 1)
            )
        # Leading column 0 starts Python's left-to-right sum() of the AR
        # terms; the MA terms are then added one at a time, in order.
        ar_terms = np.zeros((n, p + 1))
        ma_terms = np.empty((n, q + 1))
        for step in range(horizon):
            np.multiply(self._phi, values[:, step : step + p][:, ::-1],
                        out=ar_terms[:, 1:])
            ma_terms[:, 0] = self._intercept + ar_terms.cumsum(axis=1)[:, -1]
            np.multiply(self._theta, innovations[:, step : step + q][:, ::-1],
                        out=ma_terms[:, 1:])
            values[:, p + step] = ma_terms.cumsum(axis=1)[:, -1]
        return values[:, p:]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArmaPredictor(p={self.p}, q={self.q}, fitted={self._fitted})"
