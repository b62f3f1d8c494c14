"""Batched forecasts: every model's ``_forecasts`` kernel and the
capacity run's :class:`~repro.prediction.ForecastTable`.

A kernel forecasts many origins in one call; each row must be bit for
bit the per-origin forecast in ``tests/zoo_oracles.py``, and the
one-origin call must be ``predict_horizon``.  A capacity run whose load
series is known up front reads its decisions' forecasts from a table of
those rows: one row per plan, each equal to ``predict_horizon`` on the
prefix the decision saw.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import default_config
from repro.core.planner import Planner
from repro.elasticity import StrategySpec
from repro.errors import NotFittedError, PredictionError
from repro.prediction import (
    ForecastTable,
    OnlinePredictor,
    get_predictor_spec,
    registered_predictors,
)
from repro.prediction import base as prediction_base
from repro.sim import CapacitySimulator
from repro.telemetry.runtime import telemetry_scope
from repro.workload import b2w_like_trace

from . import zoo_oracles as oracle

PERIOD = 24
ALL = registered_predictors()


def _series() -> np.ndarray:
    return b2w_like_trace(
        n_days=12, slot_seconds=3600.0, seed=13, base_level=1250.0 * 3600.0,
    ).as_rate_per_second()


SERIES = _series()


def _fit(name: str, series: np.ndarray = SERIES):
    spec = get_predictor_spec(name)
    if spec.needs_truth:
        return spec.factory(series)
    return spec.for_period(PERIOD).fit(series)


#: name -> (fitted model, scalar GBT fit or None), fitted once.
FITTED = {}


def fitted(name: str):
    if name not in FITTED:
        model = _fit(name)
        scalar = (
            oracle.gbt_fit(model, model._fit_series) if name == "gbt" else None
        )
        FITTED[name] = (model, scalar)
    return FITTED[name]


def _same(a, b) -> bool:
    """Bitwise equality of two float arrays (signed zeros too)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestKernels:
    def test_every_registered_model_is_covered(self):
        assert {"ar", "arma"} <= set(ALL)

    @settings(max_examples=120, deadline=None)
    @given(
        name=st.sampled_from(ALL),
        data=st.data(),
    )
    def test_rows_are_the_per_origin_forecasts(self, name, data):
        model, scalar = fitted(name)
        horizon = data.draw(
            st.integers(1, min(model.tau_max or 12, 12)), label="horizon"
        )
        origins = data.draw(
            st.lists(
                st.integers(model.min_history - 1, SERIES.size - 1),
                min_size=1, max_size=6,
            ),
            label="origins",
        )
        rows = model.forecasts(SERIES, origins, horizon)
        assert rows.shape == (len(origins), horizon)
        for row, origin in zip(rows, origins):
            expected = oracle.forecast_one(
                model, SERIES[: origin + 1], horizon, scalar
            )
            assert _same(row, expected), (name, origin, horizon)
        first = origins[0]
        assert _same(
            model.forecasts(SERIES, [first], horizon)[0],
            model.predict_horizon(SERIES[: first + 1], horizon),
        )

    @pytest.mark.parametrize("name", ALL)
    def test_the_first_origin_min_history_allows(self, name):
        """SPAR's deepest offset from this origin reads one slot before
        the series; the one-origin call has always read it as the
        origin's own slot, and the batch must too."""
        model, scalar = fitted(name)
        first = model.min_history - 1
        horizon = min(model.tau_max or 6, 6)
        rows = model.forecasts(SERIES, [first, first + 5], horizon)
        for row, origin in zip(rows, (first, first + 5)):
            expected = oracle.forecast_one(
                model, SERIES[: origin + 1], horizon, scalar
            )
            assert _same(row, expected), origin

    @pytest.mark.parametrize("name", ALL)
    def test_chunks_join_into_the_one_batch(self, name, monkeypatch):
        model, _ = fitted(name)
        origins = np.arange(model.min_history - 1, SERIES.size, 7)
        whole = model.forecasts(SERIES, origins, 3)
        monkeypatch.setattr(prediction_base, "FORECAST_CHUNK", 4)
        assert _same(model.forecasts(SERIES, origins, 3), whole)

    @pytest.mark.parametrize("name", ALL)
    def test_backtest_and_predict_at_are_unchanged(self, name):
        """Both are one ``forecasts`` call now; they read what the loop of
        per-origin forecasts they replaced read."""
        model, scalar = fitted(name)
        for tau in (1, 3):
            lo = model.min_history - 1 + tau
            result = model.backtest(SERIES, tau, start=lo, step=5)
            indices = list(range(lo, SERIES.size, 5))
            expected = [
                oracle.forecast_one(
                    model, SERIES[: t - tau + 1], tau, scalar
                )[tau - 1]
                for t in indices
            ]
            assert _same(result.indices, indices)
            assert _same(result.actual, SERIES[indices])
            assert _same(result.predicted, expected)
            t = SERIES.size - 20
            assert model.predict_at(SERIES, t, tau) == oracle.forecast_one(
                model, SERIES[: t + 1], tau, scalar
            )[tau - 1]

    def test_an_empty_backtest_forecasts_nothing(self):
        model, _ = fitted("seasonal")
        result = model.backtest(SERIES, 2, start=100, stop=100)
        assert len(result) == 0

    @pytest.mark.parametrize("name", ALL)
    def test_origins_are_validated(self, name):
        model, _ = fitted(name)
        with pytest.raises(PredictionError, match="shorter than the minimum"):
            model.forecasts(SERIES, [model.min_history - 2], 1)
        with pytest.raises(PredictionError, match="past the end"):
            model.forecasts(SERIES, [SERIES.size], 1)

    @pytest.mark.parametrize("name", ("spar", "oracle"))
    def test_a_call_meters_its_rows_and_one_latency(self, name):
        model, _ = fitted(name)
        origins = list(range(model.min_history - 1, SERIES.size, 11))
        with telemetry_scope() as tel:
            model.forecasts(SERIES, origins, 4)
            model.predict_horizon(SERIES, 4)
        assert tel.metrics.counter(
            "predictor.forecast", model=name
        ).value == len(origins) + 1
        assert tel.metrics.histogram(
            "predictor.latency_ms", model=name, tau="4"
        ).count == 2

    def test_online_wrapper_forecasts_through_its_base(self):
        online = OnlinePredictor(
            get_predictor_spec("ar").build(order=6), refit_every=PERIOD,
            min_training=100,
        )
        with pytest.raises(NotFittedError, match="observations needed"):
            online.forecasts(SERIES, [50], 2)
        online.fit(SERIES[:150])
        assert _same(
            online.forecasts(SERIES, [160, 170], 2),
            online.base.forecasts(SERIES, [160, 170], 2),
        )


class TestOracleGuard:
    """The ground-truth check covers every origin of a call at once."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_a_mismatch_at_any_origin_of_a_batch_raises(self, data):
        truth = SERIES
        model = get_predictor_spec("oracle").factory(truth)
        origins = data.draw(
            st.lists(st.integers(0, truth.size - 1), min_size=1, max_size=8),
            label="origins",
        )
        model.forecasts(truth, origins, 4)  # the truth itself passes
        target = data.draw(st.sampled_from(origins), label="target")
        slot = data.draw(
            st.integers(max(0, target - 2), target), label="slot"
        )
        history = truth.copy()
        history[slot] += 1.0 + abs(history[slot])
        with pytest.raises(PredictionError, match="ground-truth"):
            model.forecasts(history, origins, 4)

    def test_past_the_truth_raises(self):
        model = get_predictor_spec("oracle").factory(SERIES[:100])
        with pytest.raises(PredictionError, match="longer than the truth"):
            model.forecasts(SERIES, [50, 120], 2)


class TestForecastTable:
    def test_rows_are_predict_horizon_on_the_prefix(self, monkeypatch):
        monkeypatch.setattr(prediction_base, "FORECAST_CHUNK", 16)
        model, _ = fitted("spar")
        table = ForecastTable(model, SERIES, 5)
        # In order, out of order, and back: a row is a function of the
        # prefix alone, whichever chunk holds it.
        for origin in (200, 201, 230, 210, 199, 287, 220):
            history = SERIES[: origin + 1]
            rows = table.rows(history)
            assert rows.shape == (1, 5)
            assert _same(rows[0], model.predict_horizon(history, 5))
            assert not rows.flags.writeable

    def test_a_block_ends_where_the_chunk_does(self, monkeypatch):
        monkeypatch.setattr(prediction_base, "FORECAST_CHUNK", 16)
        model, _ = fitted("spar")
        table = ForecastTable(model, SERIES, 5)
        for origin, count, rows in ((200, 4, 4), (210, 32, 6), (216, 3, 3)):
            block = table.rows(SERIES[: origin + 1], count)
            assert block.shape == (rows, 5)
            for i, row in enumerate(block):
                assert _same(
                    row, model.predict_horizon(SERIES[: origin + i + 1], 5)
                ), (origin, i)

    def test_a_history_off_the_series_is_refused(self):
        model, _ = fitted("naive")
        table = ForecastTable(model, SERIES, 2)
        wrong = SERIES[:50].copy()
        wrong[-1] += 1.0
        for history in (wrong, [], np.concatenate([SERIES, [1.0]])):
            with pytest.raises(PredictionError, match="not a prefix"):
                table.rows(history)


def _intercept_blocks(monkeypatch, multiplier=lambda: 1.0):
    """Record every block a run decides: the origin and raw rows the
    forecast table handed out (with the drift ``multiplier()`` then),
    the load rows ``Planner.rows`` was given, and how many of
    them ``best_moves`` planned (the slots decided)."""
    blocks = []
    table_rows, planner_rows = ForecastTable.rows, Planner.rows
    best_moves = Planner.best_moves

    def reading(table, history, count=1):
        block = table_rows(table, history, count)
        blocks.append({"origin": len(history) - 1, "rows": block,
                       "multiplier": multiplier(), "decided": 0})
        return block

    def gathering(planner, loads, n0):
        blocks[-1]["loads"] = loads
        return planner_rows(planner, loads, n0)

    def planning(planner, request):
        blocks[-1]["decided"] += 1
        return best_moves(planner, request)

    monkeypatch.setattr(ForecastTable, "rows", reading)
    monkeypatch.setattr(Planner, "rows", gathering)
    monkeypatch.setattr(Planner, "best_moves", planning)
    return blocks


def _decided(blocks):
    """``(origin, raw row, multiplier, planner load row)`` per slot
    decided, in slot order."""
    return [
        (block["origin"] + i, block["rows"][i], block["multiplier"],
         block["loads"][i])
        for block in blocks for i in range(block["decided"])
    ]


class TestOneForecastRowPerPlan:
    """capacity_zoo's runs (14 training + 2 evaluation days at 5-minute
    slots) read their forecasts from a table: exactly one row per slot
    decided, 572 per predictive slug, each the ``predict_horizon``
    forecast on the prefix the decision saw and, inflated, the row
    ``best_moves`` plans, and the run asks ``predict_horizon`` for
    nothing."""

    @pytest.mark.parametrize("slug", ("spar", "mssa", "gbt"))
    def test_one_row_per_plan(self, slug, monkeypatch):
        train, evaluation = oracle.zoo_scale_series()
        config = default_config().with_interval(oracle.ZOO_SLOT_SECONDS)
        model = get_predictor_spec(slug).for_period(oracle.ZOO_PERIOD).fit(train)
        asked = []
        predict_horizon = type(model).predict_horizon

        def asking(self, history, horizon):
            asked.append(len(history))
            return predict_horizon(self, history, horizon)

        blocks = _intercept_blocks(monkeypatch)
        monkeypatch.setattr(type(model), "predict_horizon", asking)
        strategy = StrategySpec.parse(f"predictive:{slug}").build(
            config, predictor=model
        )
        simulator = CapacitySimulator(
            config, max(1, math.ceil(evaluation[0] * 1.3 / config.q)),
            history_seed=train,
        )
        simulator.run(oracle.zoo_scale_trace().slice_days(
            oracle.ZOO_TRAIN_DAYS, oracle.ZOO_EVAL_DAYS
        ), strategy)
        decided = _decided(blocks)
        assert len(decided) == 572
        assert asked == []
        assert any(block["decided"] > 1 for block in blocks)
        monkeypatch.undo()
        history = simulator.history
        origins = [origin for origin, *_ in decided]
        assert origins == sorted(set(origins))
        for origin, forecast, _, loads in decided:
            assert _same(
                forecast,
                model.predict_horizon(history[: origin + 1], oracle.ZOO_HORIZON),
            ), origin
            assert _same(loads[1:], forecast * config.prediction_inflation)
            assert loads[0] == history[origin]

    def test_a_learning_predictor_forecasts_per_decision(self):
        """An OnlinePredictor learns from what it is shown, so no table
        is built for it, and a run that does not know its series gets
        none either."""
        train, evaluation = oracle.zoo_scale_series()
        config = default_config().with_interval(oracle.ZOO_SLOT_SECONDS)
        online = OnlinePredictor(
            get_predictor_spec("naive").build(), refit_every=288,
        ).fit(train)
        strategy = StrategySpec.parse("predictive:naive").build(
            config, predictor=online
        )
        strategy.reset(3, known=np.concatenate([train, evaluation]))
        assert strategy.controller._table is None
        batch = StrategySpec.parse("predictive:naive").build(
            config, predictor=get_predictor_spec("naive").build().fit(train)
        )
        batch.reset(3, known=train)
        assert batch.controller._table is not None
        batch.reset(3)
        assert batch.controller._table is None


class TestForecastHandOff:
    """A decision hands the planner its forecast row times the run's
    forecast drift times the prediction inflation: ``row * drift *
    inflation`` over a block's rows as one array, bitwise, and one
    ``best_moves`` call per slot decided.  With telemetry on, the
    snapshot's ``inflated_next`` / ``predicted_peak`` and the accuracy
    tracker's lists are those numbers too."""

    @pytest.mark.parametrize("drift, recording", [
        (False, False), (True, False), (True, True),
    ], ids=["plain", "drift", "telemetry"])
    def test_the_planner_gets_the_inflated_row(
        self, drift, recording, monkeypatch
    ):
        from repro.faults import FaultInjector, FaultSpec
        from repro.telemetry import NULL_TELEMETRY
        from repro.telemetry.accuracy import AccuracyTracker

        train, evaluation = oracle.zoo_scale_series()
        config = default_config().with_interval(oracle.ZOO_SLOT_SECONDS)
        model = get_predictor_spec("seasonal").for_period(
            oracle.ZOO_PERIOD
        ).fit(train)
        tracked = []
        injector = FaultInjector([
            FaultSpec(kind="forecast_drift", at_time=3e4,
                      duration_seconds=6e4, magnitude=1.7),
            FaultSpec(kind="forecast_drift", at_time=6e4,
                      duration_seconds=3e4, magnitude=0.55),
        ]) if drift else None

        record_forecast = AccuracyTracker.record_forecast

        def tracking(tracker, origin_slot, predicted, inflated=None, **kw):
            tracked.append((list(predicted), list(inflated)))
            return record_forecast(tracker, origin_slot, predicted, inflated, **kw)

        blocks = _intercept_blocks(
            monkeypatch,
            injector.forecast_multiplier if drift else (lambda: 1.0),
        )
        monkeypatch.setattr(AccuracyTracker, "record_forecast", tracking)
        with telemetry_scope(None if recording else NULL_TELEMETRY) as tel:
            strategy = StrategySpec.parse("predictive:seasonal").build(
                config, predictor=model
            )
            if drift:
                reset, decide_run = strategy.reset, strategy.decide_run

                def reset_under_drift(initial, known=None):
                    reset(initial, known, injector)

                def decide_at(slot, history, machines, count):
                    injector.advance(slot * config.interval_seconds)
                    decided = decide_run(slot, history, machines, count)
                    assert decided[0] == 0  # a block of one
                    return decided

                strategy.reset = reset_under_drift
                strategy.decide_run = decide_at
            simulator = CapacitySimulator(
                config, max(1, math.ceil(evaluation[0] * 1.3 / config.q)),
                history_seed=train,
            )
            simulator.run(oracle.zoo_scale_trace().slice_days(
                oracle.ZOO_TRAIN_DAYS, oracle.ZOO_EVAL_DAYS
            ), strategy)

        decided = _decided(blocks)
        assert len(decided) == 572
        one_slot_blocks = all(block["decided"] == 1 for block in blocks)
        assert one_slot_blocks if drift else not one_slot_blocks
        multipliers = {m for _, _, m, _ in decided}
        assert multipliers == ({1.0, 1.7, 1.7 * 0.55} if drift else {1.0})
        expected = []
        for _, forecast, multiplier, loads in decided:
            predicted = np.asarray(forecast)
            if multiplier != 1.0:
                predicted = predicted * multiplier
            inflated = predicted * config.prediction_inflation
            assert _same(loads[1:], inflated)
            expected.append((predicted, inflated))
        if not recording:
            assert tracked == []
            return
        snapshots = [
            rec for rec in tel.chronicle.records
            if rec["kind"] == "forecast.snapshot"
        ]
        assert len(snapshots) == len(tracked) == len(expected)
        for snap, (predicted, inflated), (seen, seen_inflated) in zip(
            snapshots, expected, tracked
        ):
            assert _same(seen, predicted) and _same(seen_inflated, inflated)
            assert _same(
                [snap["predicted_next"], snap["inflated_next"],
                 snap["predicted_peak"]],
                [predicted[0], inflated[0], inflated.max()],
            )
