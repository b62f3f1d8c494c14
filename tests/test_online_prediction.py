"""Tests for the active-learning OnlinePredictor wrapper (Sec. 6)."""

import numpy as np
import pytest

from repro.errors import NotFittedError, PredictionError
from repro.prediction import (
    LastValuePredictor,
    OnlinePredictor,
    SeasonalNaivePredictor,
    SparPredictor,
)
from repro.prediction.registry import (
    get_predictor_spec,
    registered_predictors,
)
from repro.telemetry.runtime import telemetry_scope


def periodic(periods, period=48):
    x = np.arange(periods * period)
    return 100.0 + 80.0 * np.sin(2 * np.pi * x / period)


class TestLifecycle:
    def test_not_fitted_until_enough_observations(self):
        online = OnlinePredictor(
            SeasonalNaivePredictor(48), refit_every=48, min_training=96
        )
        online.observe_many(periodic(1))  # 48 < 96 observations
        with pytest.raises(NotFittedError):
            online.predict_next(4)

    def test_first_fit_happens_automatically(self):
        online = OnlinePredictor(
            SeasonalNaivePredictor(48), refit_every=48, min_training=96
        )
        online.observe_many(periodic(2))
        assert online.fit_count == 1
        forecast = online.predict_next(4)
        assert forecast.shape == (4,)

    def test_weekly_refits(self):
        online = OnlinePredictor(
            LastValuePredictor(), refit_every=100, min_training=10
        )
        online.observe_many(np.ones(10))   # first fit
        online.observe_many(np.ones(250))  # two more cadence fits
        assert online.fit_count == 3

    def test_offline_bootstrap_via_fit(self):
        online = OnlinePredictor(
            SeasonalNaivePredictor(48), refit_every=48, min_training=96
        )
        online.fit(periodic(4))
        assert online.is_fitted
        assert online.fit_count == 1

    def test_spar_defaults_derive_min_training(self):
        spar = SparPredictor(period=48, n_periods=2, m_recent=5)
        online = OnlinePredictor(spar, refit_every=48)
        assert online.min_training == spar.min_history + 48


    @pytest.mark.parametrize("period", [24, 288])
    @pytest.mark.parametrize(
        "slug", sorted(set(registered_predictors()) - {"oracle"})
    )
    def test_default_first_fit_waits_for_what_the_fit_needs(self, slug, period):
        """No registry model's default ``min_training`` is below its own
        ``min_fit`` (ARMA, mSSA and GBT used to raise out of ``observe``)."""
        base = get_predictor_spec(slug).for_period(period)
        online = OnlinePredictor(base, refit_every=10 * period)
        assert online.min_training >= base.min_fit
        series = periodic(-(-online.min_training // period), period)
        online.observe_many(series)
        assert online.fit_count == 1
        if base.min_fit > 1:  # the declared floor is the one ``fit`` checks
            with pytest.raises(PredictionError, match="needs at least"):
                base.fit(series[: base.min_fit - 1])
            base.fit(series[: base.min_fit])


class TestRefitBookkeeping:
    def test_every_path_to_a_fit_counts_one_refit_under_the_slug(self):
        """Offline ``fit``, the ``observe`` cadence and ``refit_now`` go
        through one ``_refit``: same counter, keyed like every other
        predictor metric (``seasonal``, not the class name)."""
        online = OnlinePredictor(
            SeasonalNaivePredictor(4), refit_every=3, min_training=8
        )
        with telemetry_scope() as tel:
            online.fit(periodic(2, period=4))               # 1: offline
            online.observe_many([1.0, 2.0])
            assert (online.fit_count, online._since_fit) == (1, 2)
            online.observe(3.0)                             # 2: cadence
            assert (online.fit_count, online._since_fit) == (2, 0)
            assert online.refit_now()                       # 3: forced
            assert online._fit_window == list(online.history)
        assert online.fit_count == 3
        assert len(tel.metrics) == 2
        assert tel.metrics.counter("predictor.refit", model="seasonal").value == 3
        assert tel.metrics.counter("predictor.refit_forced").value == 1

    def test_batch_models_ignore_the_stream(self):
        model = LastValuePredictor().fit([5.0])
        model.observe(9.0)
        assert model.refit_now() is False
        assert model.min_training is None
        assert model.predict_horizon([5.0], 1)[0] == 5.0


class TestAccuracy:
    def test_tracks_signal_after_learning(self):
        series = periodic(6)
        online = OnlinePredictor(
            SeasonalNaivePredictor(48), refit_every=48, min_training=96
        )
        online.observe_many(series[:240])
        forecast = online.predict_next(10)
        assert np.allclose(forecast, series[240:250], rtol=0.05)

    def test_adapts_to_level_shift(self):
        """After refit, the model reflects the new regime."""
        online = OnlinePredictor(
            LastValuePredictor(), refit_every=5, min_training=5
        )
        online.observe_many([10.0] * 6)
        assert online.predict_next(1)[0] == pytest.approx(10.0)
        online.observe_many([50.0] * 10)
        assert online.predict_next(1)[0] == pytest.approx(50.0)


class TestValidationAndBounds:
    def test_invalid_observation(self):
        online = OnlinePredictor(LastValuePredictor(), refit_every=5)
        with pytest.raises(PredictionError):
            online.observe(-1.0)
        with pytest.raises(PredictionError):
            online.observe(float("nan"))

    def test_invalid_cadence(self):
        with pytest.raises(PredictionError):
            OnlinePredictor(LastValuePredictor(), refit_every=0)

    def test_history_capped(self):
        online = OnlinePredictor(
            LastValuePredictor(), refit_every=10, min_training=5, max_history=20
        )
        online.observe_many(np.arange(100, dtype=float))
        assert online.history.size == 20
        assert online.history[-1] == 99.0

    def test_bad_max_history(self):
        with pytest.raises(PredictionError):
            OnlinePredictor(LastValuePredictor(), refit_every=5, max_history=0)
