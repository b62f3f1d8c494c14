"""Oracle predictor: returns the true future load.

"P-Store Oracle" in Figure 12 shows the upper bound of P-Store's
performance — a planner fed with perfect predictions.  The oracle holds
the full ground-truth series and, asked to forecast from the end of some
observed prefix, simply reads the next ``horizon`` true values.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import PredictionError
from .base import Predictor


class OraclePredictor(Predictor):
    """Perfect predictor backed by the ground-truth series.

    The history passed to :meth:`predict_horizon` must be a prefix of the
    truth (only its *length* is used to locate "now"); a mismatch larger
    than floating-point noise raises, which guards against accidentally
    pairing an oracle with the wrong trace.
    """

    name = "oracle"

    def __init__(self, truth: Sequence[float]):
        super().__init__()
        self.fit(truth)  # nothing to learn: the truth is the model

    def _fit(self, arr: np.ndarray) -> None:
        # Fitting replaces the truth; useful when reusing one instance.
        self._truth = arr

    def _forecast(self, arr: np.ndarray, horizon: int) -> np.ndarray:
        now = arr.size - 1
        if now >= self._truth.size:
            raise PredictionError(
                f"history of {arr.size} slots is longer than the truth "
                f"({self._truth.size} slots)"
            )
        if not np.allclose(arr[-3:], self._truth[max(0, now - 2) : now + 1]):
            raise PredictionError(
                "history does not match the oracle's ground-truth series"
            )
        end = now + 1 + horizon
        future = self._truth[now + 1 : min(end, self._truth.size)]
        if future.size < horizon:
            # Past the end of the truth: hold the last known value.
            pad = np.full(horizon - future.size, self._truth[-1])
            future = np.concatenate([future, pad])
        return future
