"""Protocol-conformance suite for every registered predictor.

Parameterized over the registry (``repro.prediction.registry``), so a
newly registered predictor is covered automatically: fit/predict
shapes, ``predict_at`` vs ``predict_horizon`` agreement, seeded
determinism, declared capabilities, ``tau_max`` enforcement, and the
JSON ``state_dict`` round-trip that ``pstore serve --resume`` depends
on (both bare and behind :class:`OnlinePredictor`)."""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from repro.config import default_config
from repro.core.planner import Planner, PlanRequest
from repro.errors import ConfigurationError, PredictionError
from repro.prediction import (
    Predictor,
    build_predictor,
    get_predictor_spec,
    registered_predictors,
)
from repro.prediction.online import OnlinePredictor
from repro.telemetry.runtime import telemetry_scope
from repro.workload import b2w_like_trace

from .zoo_oracles import ZOO_HORIZON, ZOO_PERIOD, zoo_scale_series

#: Hourly slots keep every fit fast; 12 days covers SPAR's 222-slot
#: minimum at period 24.
PERIOD = 24
N_DAYS = 12

ALL = registered_predictors()
#: Predictors buildable without the ground truth (everything but oracle).
BUILDABLE = tuple(
    name for name in ALL if not get_predictor_spec(name).needs_truth
)


@pytest.fixture(scope="module")
def series():
    trace = b2w_like_trace(
        n_days=N_DAYS,
        slot_seconds=3600.0,
        seed=13,
        base_level=1250.0 * 3600.0,
    )
    return trace.as_rate_per_second()


def make_fitted(name: str, series) -> Predictor:
    """Build one registry predictor the way ``fit_predictor`` would."""
    spec = get_predictor_spec(name)
    if spec.needs_truth:
        return spec.factory(series)
    return spec.for_period(PERIOD).fit(series)


class TestRegistry:
    def test_slugs_and_order(self):
        assert ALL[:5] == ("spar", "arma", "ar", "naive", "oracle")
        assert {"seasonal", "mssa", "gbt"} <= set(ALL)

    @pytest.mark.parametrize("name", ALL)
    def test_class_name_attribute_matches_slug(self, name, series):
        assert make_fitted(name, series).name == name

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ConfigurationError) as exc:
            get_predictor_spec("prophet")
        for name in ALL:
            assert name in str(exc.value)

    @pytest.mark.parametrize("name", BUILDABLE)
    def test_undeclared_kwarg_rejected(self, name):
        with pytest.raises(ConfigurationError) as exc:
            build_predictor(name, definitely_not_a_param=1)
        assert "does not accept" in str(exc.value)

    def test_oracle_not_buildable_without_truth(self):
        with pytest.raises(ConfigurationError):
            build_predictor("oracle")


class TestConformance:
    @pytest.mark.parametrize("name", ALL)
    def test_fit_predict_shapes(self, name, series):
        model = make_fitted(name, series)
        assert model.is_fitted
        horizon = 6
        forecast = model.predict_horizon(series, horizon)
        assert forecast.shape == (horizon,)
        assert np.all(np.isfinite(forecast))

    @pytest.mark.parametrize("name", ALL)
    def test_predict_at_matches_horizon(self, name, series):
        model = make_fitted(name, series)
        t = series.size - 10
        for tau in (1, 3):
            direct = model.predict_at(series, t, tau)
            sliced = model.predict_horizon(series[: t + 1], tau)[tau - 1]
            assert direct == sliced

    @pytest.mark.parametrize("name", ALL)
    def test_deterministic_across_instances(self, name, series):
        a = make_fitted(name, series).predict_horizon(series, 6)
        b = make_fitted(name, series).predict_horizon(series, 6)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name", ALL)
    def test_capabilities_declaration(self, name, series):
        caps = make_fitted(name, series).capabilities()
        assert caps["name"] == name
        assert caps["min_history"] >= 1
        assert caps["deterministic"] is True
        assert caps["tau_max"] is None or caps["tau_max"] >= 1

    @pytest.mark.parametrize("name", ALL)
    def test_every_forecast_is_metered_under_the_slug(self, name, series):
        """The template meters, so no model can forget to: ar, arma,
        naive, seasonal and the oracle exported nothing before it."""
        model = make_fitted(name, series)
        with telemetry_scope() as tel:
            model.predict_horizon(series, 6)
            model.predict_horizon(series, 6)
            if name in BUILDABLE:
                OnlinePredictor(model, refit_every=PERIOD).predict_horizon(
                    series, 3
                )
        wrapped = int(name in BUILDABLE)
        metrics = tel.metrics
        assert len(metrics) == 2 + wrapped      # nothing under another label
        assert metrics.counter(
            "predictor.forecast", model=name
        ).value == 2 + wrapped
        assert metrics.histogram(
            "predictor.latency_ms", model=name, tau="6"
        ).count == 2

    @pytest.mark.parametrize("name", ("spar", "seasonal"))
    def test_periodic_models_enforce_tau_max(self, name, series):
        model = make_fitted(name, series)
        assert model.tau_max == PERIOD - 1
        model.predict_horizon(series, model.tau_max)  # at the bound: fine
        with pytest.raises(PredictionError):
            model.predict_horizon(series, model.tau_max + 1)

    @pytest.mark.parametrize("name", ("ar", "arma", "naive", "mssa", "gbt"))
    def test_recursive_models_are_unbounded(self, name, series):
        model = make_fitted(name, series)
        assert model.tau_max is None
        forecast = model.predict_horizon(series, PERIOD + 12)
        assert forecast.shape == (PERIOD + 12,)
        assert np.all(np.isfinite(forecast))


class TestCheckpointRoundTrip:
    """``state_dict`` → JSON → ``restore_state`` must reproduce the
    model exactly — the contract ``pstore serve --resume`` leans on."""

    @pytest.mark.parametrize("name", ALL)
    def test_bare_round_trip_is_exact(self, name, series):
        model = make_fitted(name, series)
        doc = json.loads(json.dumps(model.state_dict()))

        spec = get_predictor_spec(name)
        if spec.needs_truth:
            fresh = spec.factory(series)
        else:
            fresh = spec.for_period(PERIOD)
        fresh.restore_state(doc)
        assert fresh.is_fitted
        np.testing.assert_array_equal(
            model.predict_horizon(series, 6),
            fresh.predict_horizon(series, 6),
        )

    @pytest.mark.parametrize("name", ALL)
    def test_restore_rejects_wrong_type(self, name, series):
        model = make_fitted(name, series)
        doc = model.state_dict()
        doc["type"] = "SomethingElse"
        with pytest.raises(PredictionError):
            model.restore_state(doc)

    @pytest.mark.parametrize("name", BUILDABLE)
    def test_online_wrapper_round_trip(self, name, series):
        def build():
            return OnlinePredictor(
                get_predictor_spec(name).for_period(PERIOD),
                refit_every=4 * PERIOD,
                max_history=8 * N_DAYS * PERIOD,
            )

        online = build()
        online.fit(series[:-5])
        for value in series[-5:]:
            online.observe(float(value))
        assert online.name == name

        doc = json.loads(json.dumps(online.state_dict()))
        fresh = build()
        fresh.restore_state(doc)
        np.testing.assert_array_equal(
            online.predict_horizon(series, 4),
            fresh.predict_horizon(series, 4),
        )


#: Ten days of hourly slots, the regime edges an evolving workload
#: produces: nothing, no variation, and one flash event.
DEGENERATE = {
    "all-zero": np.zeros(10 * PERIOD),
    "constant": np.full(10 * PERIOD, 1250.0),
    "spike-at-end": np.r_[np.zeros(10 * PERIOD - 1), 1e6],
    "spike-mid-series": np.r_[
        np.zeros(5 * PERIOD), 1e6, np.zeros(5 * PERIOD - 1)
    ],
}


class TestDegenerateSeries:
    """A refit inside ``pstore serve`` sees whatever the monitor
    measured.  A degenerate window must fit (and forecast something
    finite), and an unusable one must raise ``PredictionError`` — the
    one error the serve loop turns into a reactive fallback — never a
    bare ``LinAlgError`` / ``ValueError`` out of the numerics."""

    @pytest.mark.parametrize("shape", sorted(DEGENERATE))
    @pytest.mark.parametrize("name", ALL)
    def test_fits_and_forecasts_finite(self, name, shape):
        values = DEGENERATE[shape]
        forecast = make_fitted(name, values).predict_horizon(values, 6)
        assert forecast.shape == (6,)
        assert np.all(np.isfinite(forecast))
        assert np.all(forecast >= 0.0)

    @pytest.mark.parametrize(
        "bad", ([], [1.0, float("nan")] * (5 * PERIOD), [1.0, float("inf")]),
        ids=("empty", "nan", "inf"),
    )
    @pytest.mark.parametrize("name", ALL)
    def test_unusable_input_is_a_prediction_error(self, name, bad):
        with pytest.raises(PredictionError):
            make_fitted(name, bad)

    @pytest.mark.parametrize("name", ALL)
    def test_too_short_is_a_prediction_error_or_works(self, name):
        short = [1250.0, 1300.0]
        try:
            forecast = make_fitted(name, short).predict_horizon(short, 2)
        except PredictionError:
            return
        assert np.all(np.isfinite(forecast))


#: ``sha256(forecast.tobytes())[:16]`` per slug, recorded at the commit
#: before ``fit`` / ``predict_horizon`` moved into the base class (PR 23)
#: and unchanged by it.  Each row: the bare model fitted on ``series``
#: forecasting 6 slots from ``series[:-12]``; the same model behind an
#: ``OnlinePredictor`` (offline ``fit`` on 240 slots, 36 observed, one
#: cadence refit at 264); then the four ``DEGENERATE`` shapes in sorted
#: order.  A digest moves only if a forecast bit does — which needs a
#: reason, and new pins for the sweeps and goldens downstream.  mSSA's
#: row was re-recorded when its recurrence ridge became relative to the
#: lag Gram's mean diagonal: under the old absolute ridge the solve
#: picked coefficients out of rounding noise.  It was re-recorded again
#: when its Grams came from lagged products instead of GEMMs and its
#: forecast steps from one dot each instead of a sequential sum.
FORECAST_DIGESTS = {
    "spar": (
        "886314bd7d34e7d8", "0d3856311c3196a1",
        "17b0761f87b081d5", "c82cb8a5f54b7f3e",
        "17b0761f87b081d5", "17b0761f87b081d5",
    ),
    "arma": (
        "45eb57c556ba4878", "e464aea76e224019",
        "17b0761f87b081d5", "1693846c74c42304",
        "17b0761f87b081d5", "7b887aa88be85fed",
    ),
    "ar": (
        "98f184cd97c75b23", "bd697357bc994b1c",
        "17b0761f87b081d5", "f9b5dd7787c56dd6",
        "de55e150b091a8f7", "896eb9bf25483fde",
    ),
    "naive": (
        "3a61dca327035f68", "3a61dca327035f68",
        "17b0761f87b081d5", "1693846c74c42304",
        "97dae9adf13aada1", "17b0761f87b081d5",
    ),
    "oracle": (
        "333b46125a07c68a", None,
        "17b0761f87b081d5", "1693846c74c42304",
        "97dae9adf13aada1", "17b0761f87b081d5",
    ),
    "seasonal": (
        "41cd51f6402e19f2", "41cd51f6402e19f2",
        "17b0761f87b081d5", "1693846c74c42304",
        "17b0761f87b081d5", "17b0761f87b081d5",
    ),
    "mssa": (
        "58f4a173612e9fbc", "2ba396a5eb131275",
        "17b0761f87b081d5", "933e871c35cd91ea",
        "dfaaa4c7a80b415c", "171c940c026c7b6f",
    ),
    "gbt": (
        "95d11a63ffd6bf72", "c92e443ad7f42583",
        "17b0761f87b081d5", "1693846c74c42304",
        "1826a3b4ebc42d4d", "abf7c7fe566f8fd6",
    ),
}


def digest(forecast) -> str:
    return hashlib.sha256(
        np.asarray(forecast, dtype=float).tobytes()
    ).hexdigest()[:16]


class TestForecastsAreBitIdentical:
    def test_every_slug_is_pinned(self):
        assert set(FORECAST_DIGESTS) == set(ALL)

    @pytest.mark.parametrize("name", ALL)
    def test_digests_have_not_moved(self, name, series):
        bare = make_fitted(name, series).predict_horizon(series[:-12], 6)
        wrapped = None
        if name in BUILDABLE:
            online = OnlinePredictor(
                get_predictor_spec(name).for_period(PERIOD),
                refit_every=PERIOD,
            ).fit(series[:240])
            for value in series[240:-12]:
                online.observe(float(value))
            assert online.fit_count == 2
            wrapped = digest(online.predict_horizon(series[:-12], 6))
        degenerate = [
            digest(make_fitted(name, values).predict_horizon(values, 6))
            for _, values in sorted(DEGENERATE.items())
        ]
        assert (digest(bare), wrapped, *degenerate) == FORECAST_DIGESTS[name]


class TestControlWorkFitsTheSlot:
    """Control work << interval: at capacity_zoo's scale (period 288,
    14 training days, 5-minute slots) one fit + one ``predict_horizon``
    + one ``best_moves`` takes under 1 % of the 300 s slot for every
    buildable slug.  SPAR fits lazily, so its first forecast carries the
    fit; the planner is a fresh one, with no table cached."""

    BUDGET_S = 0.01 * 300.0

    @pytest.mark.parametrize("name", BUILDABLE)
    def test_fit_forecast_plan_under_one_percent_of_the_slot(self, name):
        train, evaluation = zoo_scale_series()
        history = np.concatenate([train, evaluation[:1]])
        config = default_config().with_interval(300.0)
        machines = max(1, math.ceil(evaluation[0] * 1.3 / config.q))
        start = time.perf_counter()
        model = get_predictor_spec(name).for_period(ZOO_PERIOD).fit(train)
        forecast = model.predict_horizon(history, ZOO_HORIZON)
        Planner(config).best_moves(PlanRequest(
            predicted_load=tuple(forecast * config.prediction_inflation),
            initial_machines=machines,
            current_load=float(history[-1]),
        ))
        assert time.perf_counter() - start < self.BUDGET_S
