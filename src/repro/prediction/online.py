"""Online (active-learning) prediction, Section 6 of the paper.

"P-Store has an active learning system.  If training data exists,
parameters a_k and b_j can be learned offline.  Otherwise, P-Store
constantly monitors the system over time and can actively learn the
parameter values. ... we found that updating these parameters once per
week is usually sufficient."

:class:`OnlinePredictor` wraps any batch predictor with that behaviour:
it accumulates observations, fits as soon as enough history exists, and
refits on a fixed cadence (weekly by default).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import NotFittedError, PredictionError
from ..persist import Series
from ..telemetry import get_telemetry
from .base import Predictor, as_series


class OnlinePredictor(Predictor):
    """Continuously-learning wrapper around a batch predictor.

    Parameters
    ----------
    base:
        the underlying model (e.g. a fresh :class:`SparPredictor`).
    refit_every:
        refit cadence in observed slots (e.g. one week of slots).
    min_training:
        observations needed before the first fit; defaults to the base
        model's ``min_history`` plus one period-worth of targets when it
        has a period, and never to fewer than its ``min_fit``.
    max_history:
        optional cap on retained history (old slots are dropped), so
        long-running controllers don't grow without bound.
    """

    def __init__(
        self,
        base: Predictor,
        refit_every: int,
        min_training: Optional[int] = None,
        max_history: Optional[int] = None,
    ):
        super().__init__()
        if refit_every < 1:
            raise PredictionError("refit_every must be >= 1")
        if max_history is not None and max_history < 1:
            raise PredictionError("max_history must be >= 1 when set")
        self.base = base
        self.refit_every = refit_every
        if min_training is None:
            # At least two extra points past min_history: a bare AR(p)
            # least-squares fit needs p + 2 samples to be determined.
            min_training = max(
                base.min_fit, base.min_history + max(base.period or 0, 2)
            )
        self.min_training = min_training
        self.max_history = max_history
        self._history = Series()
        self._since_fit = 0
        self.fit_count = 0
        #: Exact series the base model was last fitted on.  Checkpoint
        #: restore refits on this snapshot (fits are deterministic), so a
        #: resumed controller carries the *same* model the crashed one
        #: had — not a fresher one fitted on the longer current history.
        self._fit_window: Optional[Series] = None

    # ------------------------------------------------------------------
    # Observation stream
    # ------------------------------------------------------------------

    def observe(self, value: float) -> None:
        """Feed one measured load slot; refits when the cadence is due."""
        if not np.isfinite(value) or value < 0:
            raise PredictionError(f"invalid load observation {value!r}")
        self._history.append(float(value))
        if self.max_history is not None and len(self._history) > self.max_history:
            del self._history[: len(self._history) - self.max_history]
        self._since_fit += 1
        if len(self._history) >= self.min_training and (
            not self.is_fitted or self._since_fit >= self.refit_every
        ):
            self._refit()

    def observe_many(self, values: Sequence[float]) -> None:
        for value in values:
            self.observe(value)

    def refit_now(self) -> bool:
        """Force an immediate refit on the accumulated history.

        The error-triggered re-plan path (``repro.serve``) calls this when
        the accuracy tracker reports the model has gone stale, instead of
        waiting out the weekly cadence.  Returns ``True`` if a fit
        happened (enough history), ``False`` otherwise.
        """
        if len(self._history) < self.min_training:
            return False
        self._refit()
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter("predictor.refit_forced").inc()
        return True

    def _refit(self) -> None:
        """Fit the base on the history held now — the one place the fit
        bookkeeping moves, whether ``fit``, ``observe`` or ``refit_now``
        asked."""
        history, window = self._history, self._fit_window
        self.base.fit(history)
        # The window slides on to the history when it is the history of
        # the last fit, so a save journals the observations since then
        # rather than the whole window.
        kept = len(history) - self._since_fit
        if (
            window is not None and 0 < kept <= len(window)
            and window[len(window) - kept:] == history[:kept]
        ):
            del window[: len(window) - kept]
            window.extend(history[kept:])
        else:
            self._fit_window = Series(history)
        self._since_fit = 0
        self.fit_count += 1
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter("predictor.refit", model=self.name).inc()

    @property
    def history(self) -> np.ndarray:
        return np.asarray(self._history)

    @property
    def is_fitted(self) -> bool:
        return self.base.is_fitted

    # The wrapped model's own: accuracy windows and chronicle records
    # are keyed by the actual forecaster, not by the learning wrapper.
    name = property(lambda self: self.base.name)
    min_history = property(lambda self: self.base.min_history)
    min_fit = property(lambda self: self.base.min_fit)
    tau_max = property(lambda self: self.base.tau_max)

    # ------------------------------------------------------------------
    # Predictor interface
    # ------------------------------------------------------------------

    def fit(self, series: Sequence[float]) -> "OnlinePredictor":
        """Offline bootstrap: seed the history and fit immediately."""
        self._history = Series(as_series(series).tolist())
        self._refit()
        return self

    # ------------------------------------------------------------------
    # Checkpointing (``pstore serve --resume``)
    # ------------------------------------------------------------------

    #: The wrapped base must be of the checkpointed type (an unfitted
    #: fresh instance is fine).
    PERSIST_MATCH = ("_base_type",)
    PERSIST = ("_history", "_fit_window", "_since_fit", "fit_count")

    @property
    def _base_type(self) -> str:
        return type(self.base).__name__

    def _rebuild(self) -> None:
        """The base model's parameters are derived state: refit it on
        the restored fit window (exact — fits are deterministic)."""
        self._history = Series(self._history)
        if self._fit_window is not None:
            self._fit_window = Series(self._fit_window)
            self.base.fit(self._fit_window)

    def predict_horizon(
        self, history: Sequence[float], horizon: int
    ) -> np.ndarray:
        """Forecast using the internally-maintained model.

        ``history`` may be the caller's own measured series (the
        controller passes one); only the base model's requirements apply.
        """
        self._require_fitted()
        return self.base.predict_horizon(history, horizon)

    def forecasts(
        self, series: Sequence[float], origins: Sequence[int], horizon: int
    ) -> np.ndarray:
        """The base model's batched forecasts, once it has been fitted."""
        self._require_fitted()
        return self.base.forecasts(series, origins, horizon)

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise NotFittedError(
                f"online predictor has seen {len(self._history)} of the "
                f"{self.min_training} observations needed for its first fit"
            )

    def predict_next(self, horizon: int) -> np.ndarray:
        """Forecast from the internal history (pure streaming use)."""
        return self.predict_horizon(self._history, horizon)
