"""Trivial predictors used as sanity baselines and in ablations.

* :class:`SeasonalNaivePredictor` — "same time yesterday/last week":
  ``y(t + tau) = y(t + tau - T)``.
* :class:`LastValuePredictor` — "the load will stay where it is":
  ``y(t + tau) = y(t)``.

Neither has parameters to fit, but both follow the common
:class:`~repro.prediction.base.Predictor` contract so they can be swapped
into the controller and the evaluation harness.
"""

from __future__ import annotations

import numpy as np

from ..errors import PredictionError
from .base import Predictor


class SeasonalNaivePredictor(Predictor):
    """Repeat the value observed one period earlier.

    Parameters
    ----------
    period:
        slots per period ``T``.
    """

    name = "seasonal"

    def __init__(self, period: int):
        super().__init__()
        if period < 1:
            raise PredictionError(f"period must be >= 1 (got {period})")
        self.period = self.min_history = period
        self.tau_max = period - 1  # last period's value must be observed

    def _fit(self, arr: np.ndarray) -> None:
        """Nothing to learn."""

    def _forecasts(
        self, arr: np.ndarray, origins: np.ndarray, horizon: int
    ) -> np.ndarray:
        start = origins + 1 - self.period
        return arr[start[:, None] + np.arange(horizon)]


class LastValuePredictor(Predictor):
    """Forecast every future slot as the most recent observation."""

    name = "naive"

    def _fit(self, arr: np.ndarray) -> None:
        """Nothing to learn."""

    def _forecasts(
        self, arr: np.ndarray, origins: np.ndarray, horizon: int
    ) -> np.ndarray:
        return np.repeat(arr[origins][:, None], horizon, axis=1)
