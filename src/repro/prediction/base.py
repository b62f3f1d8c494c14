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
from typing import Optional, Sequence

import numpy as np

from ..errors import NotFittedError, PredictionError
from ..persist import Persisted
from ..telemetry import get_telemetry


def as_series(values: Sequence[float]) -> np.ndarray:
    """Validate and convert a load series to a float array."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise PredictionError(f"load series must be 1-D (got shape {arr.shape})")
    if arr.size == 0:
        raise PredictionError("load series must be non-empty")
    if not np.isfinite(arr).all():
        raise PredictionError("load series contains NaN or infinite values")
    return arr


#: Origins one kernel call forecasts: :meth:`Predictor.forecasts` splits
#: a longer origin list into chunks of this size, and a
#: :class:`ForecastTable` fills this many rows at a time.  A chunk's
#: working arrays stay a few MB even for mSSA's one-day window at
#: per-minute slots.
FORECAST_CHUNK = 512


def solve_ridge(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ridge-regularised normal equations (or a stack of them).

    SPAR, ARMA and AR add an absolute ridge, so a degenerate series — a
    flat stretch makes every lag column a copy of the intercept's — can
    leave ``gram`` singular at float precision; the fit is the
    minimum-norm solution then, not a ``LinAlgError`` out of a refit.
    (mSSA's ridge is relative to the Gram's mean diagonal, which the
    intercept keeps positive, so only ``ridge=0`` reaches the fallback
    there.)
    """
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(gram, hermitian=True) @ rhs


class Predictor(Persisted):
    """Base class for time-series load predictors.

    :meth:`fit` and :meth:`forecasts` are written once, here: they
    validate, meter, clip at zero and keep the fitted flag, and call the
    two methods a model implements — ``_fit(arr)`` and the batched
    kernel ``_forecasts(arr, origins, horizon)``, both handed a
    validated float array.  :meth:`predict_horizon` is the one-origin
    :meth:`forecasts` call.
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
    # The template: a model writes ``_fit`` and ``_forecasts``
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

    def forecasts(
        self, series: Sequence[float], origins: Sequence[int], horizon: int
    ) -> np.ndarray:
        """Forecast the next ``horizon`` slots from every origin at once.

        Row ``i`` is what the model forecasts having observed
        ``series[: origins[i] + 1]``: an origin is the index of the last
        observed slot, and a row reads nothing after it.  Each origin
        must leave at least ``min_history`` observed slots and
        ``horizon`` must not pass ``tau_max``.  ``series`` is validated
        once, the call is metered once (one counter increment per row,
        one latency observation) and the rows are clipped at zero, since
        load cannot be negative.  The kernel runs :data:`FORECAST_CHUNK`
        origins at a time, so a long backtest never holds every origin's
        working arrays at once.  Returns a ``(len(origins), horizon)``
        array; every row is bit-identical to the one-origin call.
        """
        arr = self._validated(series, horizon)
        at = np.asarray(origins, dtype=np.intp).reshape(-1)
        if not at.size:
            return np.empty((0, horizon))
        if int(at.max()) >= arr.size:
            raise PredictionError(
                f"origin {int(at.max())} is past the end of a series of "
                f"{arr.size} slots"
            )
        return self._rows(arr, at, horizon, int(at.min()) + 1)

    def predict_horizon(
        self, history: Sequence[float], horizon: int
    ) -> np.ndarray:
        """Forecast the next ``horizon`` slots given observed ``history``:
        the one-origin :meth:`forecasts` call, from its last slot.
        Returns an array of length ``horizon``."""
        arr = self._validated(history, horizon)
        return self._rows(arr, np.array([arr.size - 1]), horizon, arr.size)[0]

    def _validated(self, series: Sequence[float], horizon: int) -> np.ndarray:
        """The checks every forecast makes before its origins'."""
        self._require_fitted()
        if horizon < 1:
            raise PredictionError(f"horizon must be >= 1 (got {horizon})")
        if self.tau_max is not None and horizon > self.tau_max:
            raise PredictionError(
                f"horizon must be <= tau_max={self.tau_max} for "
                f"{self.name} (got {horizon})"
            )
        return as_series(series)

    def _rows(
        self, arr: np.ndarray, origins: np.ndarray, horizon: int, shortest: int
    ) -> np.ndarray:
        """Run the kernel a chunk at a time, clip at zero and meter: the
        ``predictor.forecast{model}`` counter gains a row per origin, the
        ``predictor.latency_ms{model,tau}`` histogram one observation
        per call (a failed call too).  ``shortest`` is the fewest slots
        any origin has observed."""
        if shortest < self.min_history:
            raise PredictionError(
                f"history of {shortest} slots is shorter than the minimum "
                f"context of {self.min_history}"
            )
        tel = get_telemetry()
        start = time.perf_counter() if tel.enabled else None  # lint: wall-clock-ok
        try:
            if origins.size <= FORECAST_CHUNK:
                rows = self._forecasts(arr, origins, horizon)
            else:
                rows = np.concatenate([
                    self._forecasts(arr, origins[lo : lo + FORECAST_CHUNK], horizon)
                    for lo in range(0, origins.size, FORECAST_CHUNK)
                ])
            # np.clip(rows, 0.0, None) is this ufunc call.
            return np.maximum(rows, 0.0)
        finally:
            if start is not None:
                elapsed_ms = (time.perf_counter() - start) * 1e3  # lint: wall-clock-ok
                tel.metrics.counter(
                    "predictor.forecast", model=self.name
                ).inc(origins.size)
                tel.metrics.histogram(
                    "predictor.latency_ms", model=self.name, tau=str(horizon)
                ).observe(elapsed_ms)

    def _fit(self, arr: np.ndarray) -> None:
        """Learn from the validated training window ``arr``; raise
        :class:`~repro.errors.PredictionError` if it is too short."""
        raise NotImplementedError

    def _forecasts(
        self, arr: np.ndarray, origins: np.ndarray, horizon: int
    ) -> np.ndarray:
        """The ``(len(origins), horizon)`` forecasts after each origin of
        ``arr`` (validated; every origin leaves ``min_history`` slots),
        before the zero clip.  Row ``i`` may read only
        ``arr[: origins[i] + 1]``."""
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

        Convenience for backtesting: entry ``tau - 1`` of the
        :meth:`forecasts` row from origin ``t``.
        """
        if tau < 1:
            raise PredictionError(f"tau must be >= 1 (got {tau})")
        history = as_series(series)[: t + 1]
        return float(self.forecasts(history, (history.size - 1,), tau)[0, tau - 1])

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
        ``t - tau`` — one :meth:`forecasts` call over every origin.
        Returns actual/predicted pairs for error analysis (Figures 5 and
        6 of the paper).
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
        indices = np.asarray(range(lo, hi, step), dtype=np.intp)
        predicted = self.forecasts(arr, indices - tau, tau)[:, tau - 1]
        return BacktestResult(
            indices=indices, actual=arr[indices], predicted=predicted, tau=tau
        )


class ForecastTable:
    """Every forecast one run will ask a batch-fitted predictor for.

    A capacity run knows its whole load series — the seeded training
    window plus the trace — before its first slot, and a predictor that
    does not learn from :meth:`Predictor.observe` forecasts from a
    prefix of it the same way whenever it is asked.  So the table
    answers a decision's forecast from rows it computes ahead:
    :data:`FORECAST_CHUNK` origins per :meth:`Predictor.forecasts` call,
    starting at the first origin asked for that it does not hold.  One
    chunk is held at a time.  A table serves one run over one series;
    nothing carries it to the next.
    """

    def __init__(
        self, predictor: Predictor, series: Sequence[float], horizon: int
    ):
        self.predictor = predictor
        self.series = as_series(series)
        self.horizon = horizon
        self._lo = 0
        self._rows = np.empty((0, horizon))

    def rows(self, history: Sequence[float], count: int = 1) -> np.ndarray:
        """The forecasts from the last slot of ``history``, which must be
        a prefix of the table's series, and from up to ``count - 1``
        slots after it: ``(n, horizon)``, read-only, with ``1 <= n <=
        count`` (a block ends where the held chunk does)."""
        origin = len(history) - 1
        if not (
            0 <= origin < self.series.size
            and history[-1] == self.series[origin]
        ):
            raise PredictionError(
                f"a history of {origin + 1} slots is not a prefix of the "
                "table's series"
            )
        offset = origin - self._lo
        if not 0 <= offset < len(self._rows):
            stop = min(origin + FORECAST_CHUNK, self.series.size)
            self._rows = self.predictor.forecasts(
                self.series, np.arange(origin, stop), self.horizon
            )
            self._rows.setflags(write=False)
            self._lo, offset = origin, 0
        return self._rows[offset : offset + count]


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
