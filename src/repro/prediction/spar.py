"""Sparse Periodic Auto-Regression (SPAR), Eq. 8 of the paper.

SPAR models the load at time ``t + tau`` as the sum of a *periodic* term
(the load at the same time-of-period in each of the previous ``n``
periods) and a *recent-offset* term (how far the last ``m`` measurements
deviate from their own periodic expectations)::

    y(t + tau) = sum_{k=1..n} a_k * y(t + tau - k*T)
               + sum_{j=1..m} b_j * dy(t - j)

    dy(t - j)  = y(t - j) - (1/n) * sum_{k=1..n} y(t - j - k*T)

``T`` is the period length in slots (1440 for per-minute data with a daily
period), ``n`` the number of past periods (the paper uses 7 — one week of
daily periods), and ``m`` the number of recent measurements (30).  The
coefficients ``a_k`` and ``b_j`` are fitted with linear least squares,
separately for each forecast offset ``tau`` (and cached), since the
optimal mixing of periodic and recent information shifts with how far
ahead we look.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..errors import PredictionError
from .base import Predictor, solve_ridge


class SparPredictor(Predictor):
    """SPAR load predictor (the paper's default model).

    Parameters
    ----------
    period:
        slots per period ``T`` (e.g. 1440 one-minute slots per day).
    n_periods:
        ``n``, past periods used by the periodic term (default 7).
    m_recent:
        ``m``, recent measurements used by the offset term (default 30).
    ridge:
        small L2 regularisation added to the normal equations, which keeps
        the fit stable when columns are collinear (e.g. a perfectly
        periodic synthetic trace).
    """

    name = "spar"

    def __init__(
        self,
        period: int,
        n_periods: int = 7,
        m_recent: int = 30,
        ridge: float = 1e-6,
    ):
        super().__init__()
        if period < 2:
            raise PredictionError(f"period must be >= 2 slots (got {period})")
        if n_periods < 1:
            raise PredictionError(f"n_periods must be >= 1 (got {n_periods})")
        if m_recent < 0:
            raise PredictionError(f"m_recent must be >= 0 (got {m_recent})")
        if ridge < 0:
            raise PredictionError(f"ridge must be >= 0 (got {ridge})")
        self.period = period
        self.n_periods = n_periods
        self.m_recent = m_recent
        self.ridge = ridge
        # The periodic term of a ``tau``-ahead forecast reaches back
        # ``n*T - tau`` slots from "now"; the offset term reaches back
        # ``m + n*T``, which dominates for ``tau < T``.
        self.min_history = m_recent + n_periods * period
        self.min_fit = self.min_history + period  # a target for every tau
        # The periodic term needs observed data: ``tau < period``.
        self.tau_max = period - 1
        # (a, b) per tau, fitted for exactly the taus 1.._fitted_upto,
        # and their dense stacks per horizon.
        self._coeffs: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._stacked: Dict[
            int, Tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = {}
        self._fitted_upto = 0
        # How far back "now" each recent offset reads: row 0 is
        # ``y(t - j)``, row k its periodic lag ``y(t - j - k*T)``.
        self._offset_reach = (
            np.arange(1, m_recent + 1)
            + np.arange(n_periods + 1)[:, None] * period
        )

    def _check_tau(self, tau: int) -> None:
        if tau < 1:
            raise PredictionError(f"tau must be >= 1 (got {tau})")
        if tau >= self.period:
            raise PredictionError(
                f"tau must be < period={self.period} so the periodic term "
                f"references only observed data (got tau={tau})"
            )

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def _fit(self, arr: np.ndarray) -> None:
        """Coefficients are fitted lazily per tau, from ``_fit_series``."""
        self._coeffs = {}
        self._stacked = {}
        self._fitted_upto = 0

    def _offset_block(
        self, series: np.ndarray, anchors: np.ndarray
    ) -> np.ndarray:
        """The ``m`` recent-offset columns ``dy(t - j)`` for each anchor.

        The per-period mean is accumulated sequentially over ``k`` (not
        ``np.sum`` over a gathered axis) so the floating-point result is
        bit-identical to a per-element loop for any ``n``.
        """
        n, m, period = self.n_periods, self.m_recent, self.period
        if not m:
            return np.empty((anchors.size, 0))
        recent = anchors[:, None] - np.arange(1, m + 1)
        mean = np.zeros((anchors.size, m))
        for k in range(1, n + 1):
            mean += series[recent - k * period]
        mean /= n
        return series[recent] - mean

    def coefficients(self, tau: int) -> Tuple[np.ndarray, np.ndarray]:
        """The fitted ``(a_k, b_j)`` for offset ``tau`` (fitting every
        offset up to ``tau`` if needed)."""
        self._require_fitted()
        self._check_tau(tau)
        self.fit_horizon(tau)
        return self._coeffs[tau]

    def fit_horizon(self, horizon: int) -> None:
        """Fit every ``tau`` in ``1..horizon`` not fitted yet, at once.

        Row ``t`` of the regression for one ``tau`` is anchored at "now"
        index ``t`` with target ``series[t + tau]``; its columns are the
        ``n`` periodic lags ``series[t + tau - k*T]`` followed by the
        ``m`` recent offsets ``dy(t - j)``.  The offsets depend only on
        the anchor, not on ``tau``, so their block is built once for the
        longest anchor range and sliced per ``tau``; the per-``tau``
        ridge-regularised normal equations ``(X'X + rI) w = X'y`` are
        then solved as one stacked :func:`solve_ridge`.
        """
        self._require_fitted()
        if horizon <= self._fitted_upto:
            return
        self._check_tau(horizon)
        missing = range(self._fitted_upto + 1, horizon + 1)
        assert self._fit_series is not None
        series = self._fit_series
        n, m, period = self.n_periods, self.m_recent, self.period
        # The offsets reach back m + n*T slots from the first anchor,
        # further than any periodic lag (tau >= 1).
        t_min = self.min_history
        anchors = np.arange(t_min, series.size - missing[0])
        offset_block = self._offset_block(series, anchors)
        ks = np.arange(1, n + 1) * period
        n_cols = n + m
        ridge_eye = self.ridge * np.eye(n_cols)
        grams = np.empty((len(missing), n_cols, n_cols))
        rhs = np.empty((len(missing), n_cols))
        for i, tau in enumerate(missing):
            rows = series.size - tau - t_min
            if rows < 1:
                raise PredictionError(
                    f"not enough training data for tau={tau}"
                )
            sub = anchors[:rows]
            design = np.concatenate(
                [series[sub[:, None] + tau - ks], offset_block[:rows]],
                axis=1,
            )
            grams[i] = design.T @ design + ridge_eye
            rhs[i] = design.T @ series[sub + tau]
        weights = solve_ridge(grams, rhs[:, :, None])[:, :, 0]
        for i, tau in enumerate(missing):
            self._coeffs[tau] = (weights[i, :n], weights[i, n:])
        self._fitted_upto = horizon

    # ------------------------------------------------------------------
    # Forecasting
    # ------------------------------------------------------------------

    def _forecasts(
        self, arr: np.ndarray, origins: np.ndarray, horizon: int
    ) -> np.ndarray:
        """Forecast slots ``t+1 .. t+horizon`` from each origin ``t``
        (Eq. 8 applied per tau)."""
        n, m = self.n_periods, self.m_recent
        self.fit_horizon(horizon)
        coeff_a, coeff_b, lag_reach = self._stacked_coeffs(horizon)
        now = origins[:, None, None]
        lags = arr[now + lag_reach]
        out = np.zeros((origins.size, horizon))
        for k in range(n):
            out += coeff_a[:, k] * lags[:, :, k]
        if m:
            # Recent offsets are shared by every tau: one gather of
            # y(t - j) and of each periodic lag y(t - j - k*T).
            past = now - self._offset_reach
            if int(origins.min()) < self.min_history:
                # From the first origin min_history allows, the deepest
                # offset reaches one slot before the series, and a
                # forecast from that origin has always read it as
                # ``history[-1]``: the origin itself.  Kept, so every
                # row is the one-origin forecast.
                past = np.where(past < 0, past + now + 1, past)
            seen = arr[past]
            acc = np.zeros((origins.size, m))
            for k in range(1, n + 1):
                acc += seen[:, k]
            offsets = seen[:, 0] - acc / n
            # vecdot takes one BLAS dot per (origin, tau), the per-tau
            # Eq. 8 loop's `b @ offsets` exactly (a gemv or a matmul
            # could round differently).
            out += np.vecdot(offsets[:, None, :], coeff_b[None])
        return out

    def _stacked_coeffs(
        self, horizon: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fitted coefficients ``a`` and ``b`` for ``tau = 1..horizon``
        as dense stacks, and the periodic lags' reach ``tau - k*T`` from
        "now"."""
        cached = self._stacked.get(horizon)
        if cached is None:
            coeff_a = np.empty((horizon, self.n_periods))
            coeff_b = np.empty((horizon, self.m_recent))
            for tau in range(1, horizon + 1):
                coeff_a[tau - 1], coeff_b[tau - 1] = self._coeffs[tau]
            reach = (
                np.arange(1, horizon + 1)[:, None]
                - np.arange(1, self.n_periods + 1) * self.period
            )
            cached = (coeff_a, coeff_b, reach)
            self._stacked[horizon] = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SparPredictor(period={self.period}, n={self.n_periods}, "
            f"m={self.m_recent}, fitted={self._fitted})"
        )
