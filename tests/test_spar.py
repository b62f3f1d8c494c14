"""Tests for the SPAR predictor (Eq. 8)."""

import numpy as np
import pytest

from repro.errors import NotFittedError, PredictionError
from repro.prediction import SeasonalNaivePredictor, SparPredictor

from . import zoo_oracles as oracle


def periodic_series(periods=12, period=48, noise=0.0, seed=0):
    """A daily-style periodic signal with optional noise."""
    rng = np.random.default_rng(seed)
    x = np.arange(periods * period)
    base = 100.0 + 80.0 * np.sin(2 * np.pi * x / period)
    if noise:
        base = base * np.exp(rng.normal(0, noise, base.size))
    return np.clip(base, 1.0, None)


class TestConstruction:
    def test_invalid_period(self):
        with pytest.raises(PredictionError):
            SparPredictor(period=1)

    def test_invalid_n(self):
        with pytest.raises(PredictionError):
            SparPredictor(period=48, n_periods=0)

    def test_invalid_m(self):
        with pytest.raises(PredictionError):
            SparPredictor(period=48, m_recent=-1)

    def test_min_history(self):
        spar = SparPredictor(period=48, n_periods=3, m_recent=10)
        assert spar.min_history == 10 + 3 * 48


class TestFitting:
    def test_predict_before_fit_raises(self):
        spar = SparPredictor(period=48, n_periods=2, m_recent=5)
        with pytest.raises(NotFittedError):
            spar.predict_horizon(periodic_series(4), 3)

    def test_too_little_training_data_raises(self):
        spar = SparPredictor(period=48, n_periods=7, m_recent=30)
        with pytest.raises(PredictionError):
            spar.fit(periodic_series(periods=5))

    def test_fit_returns_self(self):
        spar = SparPredictor(period=48, n_periods=2, m_recent=5)
        assert spar.fit(periodic_series(6)) is spar

    def test_coefficient_shapes(self):
        spar = SparPredictor(period=48, n_periods=3, m_recent=7).fit(
            periodic_series(8)
        )
        a, b = spar.coefficients(tau=2)
        assert a.shape == (3,)
        assert b.shape == (7,)

    def test_periodic_signal_coefficients_sum_near_one(self):
        """On a purely periodic signal the periodic weights should carry
        (approximately) all the mass."""
        spar = SparPredictor(period=48, n_periods=3, m_recent=5).fit(
            periodic_series(10)
        )
        a, _ = spar.coefficients(tau=1)
        assert float(a.sum()) == pytest.approx(1.0, abs=0.05)


class TestForecasting:
    def test_perfect_on_noiseless_periodic_signal(self):
        series = periodic_series(10)
        spar = SparPredictor(period=48, n_periods=3, m_recent=5).fit(
            series[: 8 * 48]
        )
        history = series[: 9 * 48]
        forecast = spar.predict_horizon(history, 12)
        actual = series[9 * 48 : 9 * 48 + 12]
        assert np.allclose(forecast, actual, rtol=0.02)

    def test_horizon_length(self):
        series = periodic_series(10)
        spar = SparPredictor(period=48, n_periods=3, m_recent=5).fit(series)
        assert spar.predict_horizon(series, 7).shape == (7,)

    def test_forecasts_clipped_at_zero(self):
        series = periodic_series(10)
        spar = SparPredictor(period=48, n_periods=2, m_recent=3).fit(series)
        # Feed a history that ends in a deep dip to provoke negatives.
        history = np.concatenate([series, np.full(20, 0.5)])
        forecast = spar.predict_horizon(history, 5)
        assert np.all(forecast >= 0.0)

    def test_short_history_rejected(self):
        series = periodic_series(10)
        spar = SparPredictor(period=48, n_periods=3, m_recent=5).fit(series)
        with pytest.raises(PredictionError):
            spar.predict_horizon(series[:100], 4)

    def test_tau_must_stay_within_one_period(self):
        series = periodic_series(10)
        spar = SparPredictor(period=48, n_periods=3, m_recent=5).fit(series)
        with pytest.raises(PredictionError):
            spar.predict_horizon(series, 48)

    def test_predict_at_matches_horizon(self):
        series = periodic_series(10, noise=0.05)
        spar = SparPredictor(period=48, n_periods=3, m_recent=5).fit(
            series[: 8 * 48]
        )
        t = 9 * 48
        direct = spar.predict_at(series, t, tau=3)
        via_horizon = spar.predict_horizon(series[: t + 1], 3)[2]
        assert direct == pytest.approx(via_horizon)


class TestAccuracy:
    def test_beats_seasonal_naive_on_drifting_load(self):
        """SPAR's recent-offset term tracks day-level drift that the
        seasonal-naive predictor cannot see."""
        rng = np.random.default_rng(7)
        period = 48
        days = 16
        x = np.arange(days * period)
        daily = 100.0 + 80.0 * np.sin(2 * np.pi * x / period)
        # Strong day-to-day level drift.
        drift = np.repeat(rng.uniform(0.7, 1.3, days), period)
        series = daily * drift

        train = 10 * period
        spar = SparPredictor(period=period, n_periods=3, m_recent=10).fit(
            series[:train]
        )
        naive = SeasonalNaivePredictor(period).fit(series[:train])
        spar_result = spar.backtest(series, tau=2, start=train, step=5)
        naive_result = naive.backtest(series, tau=2, start=train, step=5)
        assert (
            spar_result.mean_relative_error()
            < naive_result.mean_relative_error()
        )

    def test_error_grows_with_tau(self):
        """Fig. 5b: accuracy decays gracefully with the forecast window."""
        series = periodic_series(16, noise=0.08, seed=3)
        period = 48
        train = 10 * period
        spar = SparPredictor(period=period, n_periods=3, m_recent=10).fit(
            series[:train]
        )
        short = spar.backtest(series, tau=1, start=train, step=7)
        long = spar.backtest(series, tau=24, start=train, step=7)
        assert short.mean_relative_error() <= long.mean_relative_error() * 1.1


class TestVectorizedKernels:
    """The batched fit and the gather forecast must be bit-identical to
    the per-``tau`` fit and Eq. 8 loop in ``tests/zoo_oracles.py`` (same
    design matrices, coefficients, forecasts)."""

    def _design_reference(self, spar, series, tau):
        """The original per-element loop version of the design matrix."""
        t_len = series.size
        n, m, period = spar.n_periods, spar.m_recent, spar.period
        t_min = max(n * period - tau, m + n * period)
        t_max = t_len - tau - 1
        anchors = np.arange(t_min, t_max + 1)
        cols = []
        for k in range(1, n + 1):
            cols.append(series[anchors + tau - k * period])
        for j in range(1, m + 1):
            base = series[anchors - j]
            mean = np.zeros_like(base)
            for k in range(1, n + 1):
                mean += series[anchors - j - k * period]
            mean /= n
            cols.append(base - mean)
        return np.column_stack(cols), series[anchors + tau]

    def test_design_matches_reference(self):
        """The oracle's design matrix, over the product's offset block,
        equals the per-element loop."""
        series = periodic_series(periods=9, period=96, noise=0.1, seed=3)
        spar = SparPredictor(period=96, n_periods=4, m_recent=12).fit(series)
        for tau in (1, 5, 40, 95):
            fast = oracle.spar_design(spar, spar._fit_series, tau)
            ref = self._design_reference(spar, spar._fit_series, tau)
            assert np.array_equal(fast[0], ref[0]), tau
            assert np.array_equal(fast[1], ref[1]), tau

    def _assert_coefficients_match(self, spar, horizon):
        for tau in range(1, horizon + 1):
            a_b, b_b = spar.coefficients(tau)
            a_s, b_s = oracle.spar_fit_tau(spar, tau)
            assert np.array_equal(a_b, a_s), tau
            assert np.array_equal(b_b, b_s), tau

    def test_batch_fit_matches_per_tau_fit(self):
        series = periodic_series(periods=9, period=96, noise=0.1, seed=4)
        batch = SparPredictor(period=96, n_periods=4, m_recent=12).fit(series)
        batch.fit_horizon(30)
        self._assert_coefficients_match(batch, 30)

    def test_coefficients_fit_in_any_order(self):
        """Asking for a far ``tau`` first, then nearer ones, then a
        horizon past it gives the coefficients of one batched fit."""
        series = periodic_series(periods=9, period=96, noise=0.1, seed=4)
        spar = SparPredictor(period=96, n_periods=4, m_recent=12).fit(series)
        first = [np.copy(c) for c in spar.coefficients(17)]
        spar.coefficients(3)
        spar.fit_horizon(30)
        assert all(map(np.array_equal, spar.coefficients(17), first))
        self._assert_coefficients_match(spar, 30)
        with pytest.raises(PredictionError, match="tau must be >= 1"):
            spar.coefficients(0)
        with pytest.raises(PredictionError, match="tau must be < period"):
            spar.coefficients(96)

    def test_predict_horizon_matches_reference(self):
        series = periodic_series(periods=10, period=96, noise=0.15, seed=5)
        fast = SparPredictor(period=96, n_periods=5, m_recent=20).fit(series)
        ref = SparPredictor(period=96, n_periods=5, m_recent=20).fit(series)
        history = series[: 96 * 9 + 17]
        for horizon in (1, 12, 60):
            assert np.array_equal(
                fast.predict_horizon(history, horizon),
                oracle.spar_forecast(ref, history, horizon),
            ), horizon

    def test_predict_horizon_matches_reference_without_offsets(self):
        """m_recent=0 drops the offset term entirely."""
        series = periodic_series(periods=8, period=96, seed=6)
        fast = SparPredictor(period=96, n_periods=3, m_recent=0).fit(series)
        history = series[: 96 * 7 + 5]
        assert np.array_equal(
            fast.predict_horizon(history, 24),
            oracle.spar_forecast(fast, history, 24),
        )
        self._assert_coefficients_match(fast, 24)
        assert fast.coefficients(24)[1].shape == (0,)

    def test_singular_fit_matches_reference(self):
        """A lone mid-series spike (``TestDegenerateSeries``) leaves every
        ``tau``'s normal equations singular, so the batched fit and the
        per-``tau`` oracle both fall back to ``pinv`` — and agree."""
        period = 24
        spike = np.r_[np.zeros(5 * period), 1e6, np.zeros(5 * period - 1)]
        spar = SparPredictor(period=period).fit(spike)
        for tau in range(1, 7):
            design, targets = oracle.spar_design(spar, spike, tau)
            gram = design.T @ design + spar.ridge * np.eye(design.shape[1])
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(gram, design.T @ targets)
        self._assert_coefficients_match(spar, 6)
        noisy = periodic_series(periods=10, period=period, noise=0.1, seed=7)
        for history in (spike, noisy):
            assert np.array_equal(
                spar.predict_horizon(history, 6),
                oracle.spar_forecast(spar, history, 6),
            )
