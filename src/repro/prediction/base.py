"""Common interface for load predictors (Section 5 of the paper).

A predictor is *fitted* on a training window of historical load (one value
per time slot) and then asked, given the history observed so far, to
forecast the next ``horizon`` slots.  All predictors in this package:

* operate on 1-D ``numpy`` arrays of non-negative load values;
* are deterministic given their inputs;
* raise :class:`~repro.errors.NotFittedError` if used before fitting.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Optional, Sequence

import numpy as np

from ..errors import NotFittedError, PredictionError
from ..persist import Persisted
from ..telemetry import get_telemetry


@contextmanager
def forecast_instrumentation(model: str, horizon: int):
    """Meter one ``predict_horizon`` call: bumps the
    ``predictor.forecast{model}`` counter and feeds the wall-clock cost
    into the ``predictor.latency_ms{model,tau}`` histogram.  Free (one
    attribute check) when telemetry is disabled."""
    tel = get_telemetry()
    if not tel.enabled:
        yield
        return
    start = time.perf_counter()  # lint: wall-clock-ok
    try:
        yield
    finally:
        elapsed_ms = (time.perf_counter() - start) * 1e3  # lint: wall-clock-ok
        tel.metrics.counter("predictor.forecast", model=model).inc()
        tel.metrics.histogram(
            "predictor.latency_ms", model=model, tau=str(horizon)
        ).observe(elapsed_ms)


def as_series(values: Sequence[float]) -> np.ndarray:
    """Validate and convert a load series to a float array."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise PredictionError(f"load series must be 1-D (got shape {arr.shape})")
    if arr.size == 0:
        raise PredictionError("load series must be non-empty")
    if np.any(~np.isfinite(arr)):
        raise PredictionError("load series contains NaN or infinite values")
    return arr


def solve_ridge(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ridge-regularised normal equations (or a stack of them).

    The ridge is absolute, so a degenerate series — a flat stretch makes
    every lag column a copy of the intercept's — can leave ``gram``
    singular at float precision; the fit is the minimum-norm solution
    then, not a ``LinAlgError`` out of a refit.
    """
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(gram, hermitian=True) @ rhs


class Predictor(Persisted):
    """Base class for time-series load predictors.

    :meth:`fit` and :meth:`predict_horizon` are written once, here:
    they validate, meter, clip at zero and keep the fitted flag, and
    call the two methods a model implements — ``_fit(arr)`` and
    ``_forecast(arr, horizon)``, both handed a validated float array.
    The rest of the *protocol* the system programs against is declared
    below with its defaults, so no caller probes for an attribute:

    * ``name`` — the registry slug (``"spar"``, ``"mssa"``, ...) used as
      the model label in telemetry, chronicles and the accuracy tracker;
    * ``period`` / ``min_history`` / ``min_fit`` / ``tau_max`` /
      ``min_training`` —
      what the model needs, validated against up front
      (:meth:`capabilities` is the same as a dict);
    * :meth:`observe` / :meth:`refit_now` — the measured-load stream; a
      batch model ignores it,
      :class:`~repro.prediction.online.OnlinePredictor` learns from it;
    * ``state_dict`` / ``restore_state`` — JSON-serialisable
      checkpointing for ``pstore serve --resume``, from
      :class:`~repro.persist.Persisted`: the declared field is the
      training window, and ``_rebuild`` *refits* on it.  A predictor
      with more state declares more fields.
    """

    #: Registry slug; a class that sets none is labelled by its name.
    name: str = ""
    #: Slots per season, for the models that have one.
    period: Optional[int] = None
    #: Fewest observed slots ``predict_horizon`` can forecast from.
    min_history: int = 1
    #: Fewest training slots ``fit`` accepts (context plus targets).
    min_fit: int = 1
    #: Largest supported forecast offset, ``None`` if unbounded.  SPAR
    #: and the seasonal-naive baseline only reach ``tau < period`` (their
    #: periodic term must reference observed data); recursive models
    #: forecast arbitrarily far.
    tau_max: Optional[int] = None
    #: Observations before the first fit of a model that learns from
    #: :meth:`observe`; ``None`` on one that is fitted offline or never.
    min_training: Optional[int] = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if not cls.name:
            cls.name = cls.__name__

    def __init__(self) -> None:
        self._fitted = False
        #: Training series of the last ``fit`` (the checkpointed field).
        self._fit_series: Optional[np.ndarray] = None

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise NotFittedError(
                f"{type(self).__name__} must be fitted before predicting"
            )

    def capabilities(self) -> dict:
        """Declared requirements callers can validate against up front."""
        return {
            "name": self.name,
            "min_history": int(self.min_history),
            "tau_max": self.tau_max,
            "period": self.period,
            "deterministic": True,
        }

    # ------------------------------------------------------------------
    # Checkpointing (``pstore serve --resume``)
    # ------------------------------------------------------------------

    PERSIST_MATCH = ("_type",)
    PERSIST = ("_fit_series",)
    PERSIST_ERROR = PredictionError

    @property
    def _type(self) -> str:
        return type(self).__name__

    def _rebuild(self) -> None:
        """Fitted parameters are derived state: refit on the restored
        training window, which is exact because fits are deterministic."""
        if self._fit_series is None:
            self._fitted = False
        else:
            self.fit(self._fit_series)

    # ------------------------------------------------------------------
    # The template: a model writes ``_fit`` and ``_forecast``
    # ------------------------------------------------------------------

    def fit(self, series: Sequence[float]) -> "Predictor":
        """Fit model parameters on a training window.  Returns ``self``."""
        arr = as_series(series)
        if arr.size < self.min_fit:
            raise PredictionError(
                f"{self.name} needs at least {self.min_fit} training slots "
                f"(got {arr.size})"
            )
        self._fit(arr)
        self._fit_series = arr
        self._fitted = True
        return self

    def predict_horizon(
        self, history: Sequence[float], horizon: int
    ) -> np.ndarray:
        """Forecast the next ``horizon`` slots given observed ``history``.

        ``history`` must include at least ``min_history`` slots (for
        SPAR: ``n`` periods plus ``m`` recent slots) and ``horizon`` must
        not pass ``tau_max``.  Returns an array of length ``horizon``;
        forecasts are clipped at zero since load cannot be negative.
        """
        self._require_fitted()
        if horizon < 1:
            raise PredictionError(f"horizon must be >= 1 (got {horizon})")
        if self.tau_max is not None and horizon > self.tau_max:
            raise PredictionError(
                f"horizon must be <= tau_max={self.tau_max} for "
                f"{self.name} (got {horizon})"
            )
        arr = as_series(history)
        if arr.size < self.min_history:
            raise PredictionError(
                f"history of {arr.size} slots is shorter than the minimum "
                f"context of {self.min_history}"
            )
        with forecast_instrumentation(self.name, horizon):
            return np.clip(self._forecast(arr, horizon), 0.0, None)

    def _fit(self, arr: np.ndarray) -> None:
        """Learn from the validated training window ``arr``; raise
        :class:`~repro.errors.PredictionError` if it is too short."""
        raise NotImplementedError

    def _forecast(self, arr: np.ndarray, horizon: int) -> np.ndarray:
        """The next ``horizon`` slots after ``arr`` (validated, at least
        ``min_history`` long), before the zero clip."""
        raise NotImplementedError

    def observe(self, value: float) -> None:
        """One measured load slot; a batch model has nothing to learn."""

    def refit_now(self) -> bool:
        """Refit on what :meth:`observe` has accumulated, if the model
        keeps any; ``True`` when a fit happened."""
        return False

    def predict_at(
        self, series: Sequence[float], t: int, tau: int
    ) -> float:
        """Forecast the single value ``series[t + tau]`` using data up to ``t``.

        Convenience for backtesting: equivalent to slicing the history at
        ``t`` and reading entry ``tau - 1`` of :meth:`predict_horizon`.
        """
        if tau < 1:
            raise PredictionError(f"tau must be >= 1 (got {tau})")
        history = as_series(series)[: t + 1]
        return float(self.predict_horizon(history, tau)[tau - 1])

    def backtest(
        self,
        series: Sequence[float],
        tau: int,
        start: Optional[int] = None,
        stop: Optional[int] = None,
        step: int = 1,
    ) -> "BacktestResult":
        """Roll through ``series`` producing ``tau``-ahead forecasts.

        For each evaluation index ``t`` in ``[start, stop)`` (stepping by
        ``step``), forecast ``series[t]`` using only data up to
        ``t - tau``.  Returns actual/predicted pairs for error analysis
        (Figures 5 and 6 of the paper).
        """
        self._require_fitted()
        arr = as_series(series)
        if tau < 1:
            raise PredictionError(f"tau must be >= 1 (got {tau})")
        lo = tau if start is None else start
        hi = arr.size if stop is None else stop
        if not tau <= lo <= hi <= arr.size:
            raise PredictionError(
                f"invalid backtest range [{lo}, {hi}) for series of {arr.size}"
            )
        indices = list(range(lo, hi, step))
        actual = np.empty(len(indices))
        predicted = np.empty(len(indices))
        for out, t in enumerate(indices):
            history = arr[: t - tau + 1]
            predicted[out] = self.predict_horizon(history, tau)[tau - 1]
            actual[out] = arr[t]
        return BacktestResult(
            indices=np.asarray(indices), actual=actual, predicted=predicted, tau=tau
        )


class BacktestResult:
    """Actual-vs-predicted pairs produced by :meth:`Predictor.backtest`."""

    def __init__(
        self,
        indices: np.ndarray,
        actual: np.ndarray,
        predicted: np.ndarray,
        tau: int,
    ):
        self.indices = indices
        self.actual = actual
        self.predicted = predicted
        self.tau = tau

    def mean_relative_error(self) -> float:
        """MRE over all evaluation points with non-zero actual load."""
        from .metrics import mean_relative_error

        return mean_relative_error(self.actual, self.predicted)

    def __len__(self) -> int:
        return self.actual.size
