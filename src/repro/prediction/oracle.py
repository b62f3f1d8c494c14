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

    The history a forecast is made from must be a prefix of the truth
    (only its *length* is used to locate "now"); a mismatch larger than
    floating-point noise in the last three slots of any origin raises,
    which guards against accidentally pairing an oracle with the wrong
    trace.
    """

    name = "oracle"

    def __init__(self, truth: Sequence[float]):
        super().__init__()
        self.fit(truth)  # nothing to learn: the truth is the model

    def _fit(self, arr: np.ndarray) -> None:
        # Fitting replaces the truth; useful when reusing one instance.
        self._truth = arr

    def _forecasts(
        self, arr: np.ndarray, origins: np.ndarray, horizon: int
    ) -> np.ndarray:
        size = self._truth.size
        if int(origins.max()) >= size:
            raise PredictionError(
                f"history of {int(origins.max()) + 1} slots is longer than "
                f"the truth ({size} slots)"
            )
        # The last (up to) three observed slots of every origin, checked
        # in one comparison; an index clipped at 0 repeats a slot.
        recent = np.maximum(origins[:, None] - np.arange(2, -1, -1), 0)
        if not np.allclose(arr[recent], self._truth[recent]):
            raise PredictionError(
                "history does not match the oracle's ground-truth series"
            )
        # Past the end of the truth: hold the last known value.
        ahead = origins[:, None] + np.arange(1, horizon + 1)
        return self._truth[np.minimum(ahead, size - 1)]
