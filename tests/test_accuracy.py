"""Tests for the live prediction-error tracker
(:mod:`repro.telemetry.accuracy`)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import (
    DEFAULT_WINDOW,
    NULL_ACCURACY,
    AccuracyTracker,
    MetricsRegistry,
    Telemetry,
)

from .accuracy_oracle import window_stats


class TestPairing:
    def test_forecast_targets_future_slots(self):
        tracker = AccuracyTracker()
        # Forecast made after observing slot 4: predicted[i] targets
        # slot 5 + i with tau = i + 1.
        tracker.record_forecast(4, [100.0, 200.0, 300.0], predictor="spar")
        assert tracker.pending_count == 3
        harvest = tracker.observe(5, 110.0)
        assert len(harvest) == 1
        assert harvest[0]["tau"] == 1
        assert harvest[0]["predicted"] == 100.0
        assert harvest[0]["actual"] == 110.0
        harvest = tracker.observe(7, 290.0)
        # slot 6's pending forecast (tau=2) was skipped -> dropped.
        assert len(harvest) == 1
        assert harvest[0]["tau"] == 3
        assert tracker.pairs_dropped == 1
        assert tracker.pending_count == 0

    def test_overlapping_horizons_harvest_smallest_tau_first(self):
        tracker = AccuracyTracker()
        tracker.record_forecast(0, [10.0, 20.0, 30.0])
        tracker.record_forecast(1, [21.0, 31.0])
        tracker.record_forecast(2, [32.0])
        harvest = tracker.observe(3, 33.0)
        assert [entry["tau"] for entry in harvest] == [1, 2, 3]
        assert [entry["predicted"] for entry in harvest] == [32.0, 31.0, 30.0]
        assert all(entry["actual"] == 33.0 for entry in harvest)

    def test_snapshot_id_rides_through(self):
        tracker = AccuracyTracker()
        tracker.record_forecast(0, [10.0], snapshot_id="fc-300-00001")
        harvest = tracker.observe(1, 12.0)
        assert harvest[0]["snapshot_id"] == "fc-300-00001"


class TestWindowEviction:
    def test_window_evicts_oldest_pairs(self):
        tracker = AccuracyTracker(window=3)
        # Five pairs with 100% error, then three exact pairs: the
        # window only remembers the last three.
        for slot in range(5):
            tracker.record_forecast(slot, [200.0])
            tracker.observe(slot + 1, 100.0)
        stats = tracker.errors("predictor", 1)
        assert stats["pairs_window"] == 3
        assert stats["pairs_total"] == 5
        assert stats["mape_pct"] == pytest.approx(100.0)
        for slot in range(5, 8):
            tracker.record_forecast(slot, [100.0])
            tracker.observe(slot + 1, 100.0)
        stats = tracker.errors("predictor", 1)
        assert stats["pairs_window"] == 3
        assert stats["pairs_total"] == 8
        assert stats["mape_pct"] == pytest.approx(0.0)

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            AccuracyTracker(window=0)

    def test_default_window_is_one_day_of_intervals(self):
        assert AccuracyTracker().window == DEFAULT_WINDOW == 288


class TestStatistics:
    def test_signed_bias_and_smape(self):
        tracker = AccuracyTracker()
        tracker.record_forecast(0, [150.0])  # +50% overshoot
        tracker.observe(1, 100.0)
        tracker.record_forecast(1, [50.0])  # -50% undershoot
        tracker.observe(2, 100.0)
        stats = tracker.errors("predictor", 1)
        assert stats["mape_pct"] == pytest.approx(50.0)
        assert stats["bias_pct"] == pytest.approx(0.0)
        # sMAPE: 2*50/250 = 0.4 and 2*50/150 = 2/3 -> mean ~53.33%.
        assert stats["smape_pct"] == pytest.approx(
            100.0 * (0.4 + 2.0 / 3.0) / 2.0
        )

    def test_coverage_tracks_the_inflated_forecast(self):
        tracker = AccuracyTracker()
        tracker.record_forecast(0, [100.0], inflated=[115.0])
        tracker.observe(1, 110.0)  # covered
        tracker.record_forecast(1, [100.0], inflated=[115.0])
        tracker.observe(2, 130.0)  # not covered
        stats = tracker.errors("predictor", 1)
        assert stats["coverage_pct"] == pytest.approx(50.0)

    def test_machine_interval_costs_require_q(self):
        metrics = MetricsRegistry()
        tracker = AccuracyTracker(metrics=metrics)
        tracker.configure(q=100.0)
        # Provisioned ceil(300/100)=3, needed ceil(150/100)=2: one
        # machine-interval over.
        tracker.record_forecast(0, [280.0], inflated=[300.0])
        tracker.observe(1, 150.0)
        # Provisioned 2, needed 4: two machine-intervals under.
        tracker.record_forecast(1, [190.0], inflated=[200.0])
        tracker.observe(2, 350.0)
        rows = tracker.snapshot()
        assert rows[0]["over_machine_intervals"] == 1
        assert rows[0]["under_machine_intervals"] == 2
        gauges = {
            m["name"]: m["value"]
            for m in metrics.snapshot()
            if m["name"].endswith("machine_intervals")
        }
        assert gauges["forecast.over_machine_intervals"] == 1
        assert gauges["forecast.under_machine_intervals"] == 2

    def test_configure_rejects_bad_q(self):
        with pytest.raises(ValueError):
            AccuracyTracker().configure(q=0.0)


class TestMetricsPublication:
    def test_counters_and_gauges_flow_to_the_registry(self):
        metrics = MetricsRegistry()
        tracker = AccuracyTracker(metrics=metrics)
        tracker.record_forecast(0, [100.0, 120.0], predictor="spar")
        tracker.observe(1, 110.0)
        names = {m["name"] for m in metrics.snapshot()}
        assert "forecast.pairs" in names
        assert "forecast.mape_pct" in names
        assert "forecast.abs_pct_error" in names
        pair_counters = [
            m for m in metrics.snapshot() if m["name"] == "forecast.pairs"
        ]
        assert pair_counters[0]["labels"]["predictor"] == "spar"
        assert pair_counters[0]["labels"]["tau"] == "1"

    def test_dropped_counter_counts_entries_not_slots(self):
        metrics = MetricsRegistry()
        tracker = AccuracyTracker(metrics=metrics)
        tracker.record_forecast(0, [1.0, 2.0])  # slots 1 and 2
        tracker.observe(5, 9.0)  # both stale
        assert tracker.pairs_dropped == 2
        dropped = [
            m for m in metrics.snapshot()
            if m["name"] == "forecast.pairs_dropped"
        ]
        assert dropped[0]["value"] == 2


class TestBundleIntegration:
    def test_telemetry_bundle_builds_a_live_tracker(self):
        tel = Telemetry()
        assert tel.accuracy.enabled
        tel.accuracy.record_forecast(0, [10.0])
        assert tel.accuracy.pending_count == 1
        tel.reset()
        assert tel.accuracy.pending_count == 0

    def test_null_tracker_is_inert(self):
        NULL_ACCURACY.record_forecast(0, [10.0])
        assert NULL_ACCURACY.observe(1, 5.0) == []
        assert NULL_ACCURACY.pending_count == 0
        assert NULL_ACCURACY.snapshot() == []


# ----------------------------------------------------------------------
# The kept error terms vs. a walk over the window (tests/accuracy_oracle)
# ----------------------------------------------------------------------

#: Values that hit every branch of a term: zero (``actual == 0``, and
#: ``p == a == 0`` when both draw it), negative forecasts and actuals,
#: and a few magnitudes apart so that sums round.
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, -3.5, 0.1, 1.0, 100.0, 1e6]),
    st.floats(-1e4, 1e4, allow_nan=False),
)
#: One step: maybe a forecast (by one of two predictors, up to three
#: taus, with or without its inflated form), then the next slot's
#: observation (one slot in four skipped, dropping what targeted it),
#: then, one step in ten, a checkpoint round trip.
_STEPS = st.lists(
    st.tuples(
        st.one_of(
            st.none(),
            st.tuples(
                st.sampled_from(["spar", "ar"]),
                st.lists(_VALUES, min_size=1, max_size=3),
                st.one_of(
                    st.none(), st.lists(_VALUES, min_size=3, max_size=3)
                ),
            ),
        ),
        st.sampled_from([1, 1, 1, 2]),
        _VALUES,
        st.sampled_from([False] * 9 + [True]),
    ),
    max_size=40,
)

_STAT_NAMES = ("mape_pct", "smape_pct", "bias_pct", "coverage_pct")


def _gauges(metrics):
    return {
        (m["name"], m["labels"]["predictor"], m["labels"]["tau"]): m["value"]
        for m in metrics.snapshot() if m["kind"] == "gauge"
    }


class TestAgainstTheOracle:
    @given(window=st.integers(1, 5), steps=_STEPS)
    @settings(max_examples=250, deadline=None)
    def test_stats_equal_a_walk_over_the_window(self, window, steps):
        metrics = MetricsRegistry()
        tracker = AccuracyTracker(metrics=metrics, window=window)
        #: (predictor, tau) -> every pair harvested for it, in order.
        pairs = {}
        slot = 0
        for forecast, skip, actual, restore in steps:
            if forecast is not None:
                predictor, predicted, inflated = forecast
                tracker.record_forecast(
                    slot, predicted, predictor=predictor,
                    inflated=inflated and inflated[:len(predicted)],
                )
            slot += skip
            harvest = tracker.observe(slot, actual)
            for entry in harvest:
                pairs.setdefault((entry["predictor"], entry["tau"]), []).append(
                    (entry["predicted"], entry["inflated"], entry["actual"])
                )
            gauges = _gauges(metrics)
            for entry in harvest:
                key = (entry["predictor"], entry["tau"])
                expect = window_stats(pairs[key][-window:])
                for name in _STAT_NAMES:
                    # A stat with no terms leaves its gauge as it was.
                    if expect[name] is not None:
                        assert gauges[
                            (f"forecast.{name}", key[0], str(key[1]))
                        ] == expect[name], (name, key)
            if restore:
                doc = json.loads(json.dumps(tracker.state_dict()))
                metrics = MetricsRegistry()
                tracker = AccuracyTracker(metrics=metrics)
                tracker.restore_state(doc)
            for key, kept in pairs.items():
                expect = window_stats(kept[-window:])
                stats = tracker.errors(*key)
                assert {name: stats[name] for name in _STAT_NAMES} == expect
                assert stats["pairs_window"] == len(kept[-window:])
                assert stats["pairs_total"] == len(kept)
        assert [
            {name: row[name] for name in ("predictor", "tau", *_STAT_NAMES)}
            for row in tracker.snapshot()
        ] == [
            {"predictor": key[0], "tau": key[1],
             **window_stats(pairs[key][-window:])}
            for key in sorted(pairs)
        ]

    def test_the_oracle_sees_every_branch(self):
        window = [
            (5.0, None, 0.0),        # actual == 0: sape only
            (0.0, 1.0, 0.0),         # p == a == 0: coverage only
            (-2.0, -1.0, 4.0),       # a negative forecast, not covered
            (3.0, 9.0, 4.0),
        ]
        tracker = AccuracyTracker(window=4)
        for slot, (predicted, inflated, actual) in enumerate(window):
            tracker.record_forecast(
                slot, [predicted],
                inflated=None if inflated is None else [inflated],
            )
            tracker.observe(slot + 1, actual)
        stats = tracker.errors("predictor", 1)
        assert {name: stats[name] for name in _STAT_NAMES} == window_stats(
            window
        ) == {
            "mape_pct": 100.0 * (1.5 + 0.25) / 2,
            "smape_pct": 100.0 * (2.0 + 2.0 + 2.0 / 7.0) / 3,
            "bias_pct": 100.0 * (-1.5 - 0.25) / 2,
            "coverage_pct": 100.0 * 2 / 3,
        }
