"""Tests for latency recording and percentile series."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.hstore import LatencyRecorder, PercentileSeries


def series_from(values_by_second):
    recorder = LatencyRecorder()
    for second, values in values_by_second.items():
        for value in values:
            recorder.record(second, value)
    return recorder.finalize()


class TestRecorder:
    def test_basic_percentiles(self):
        series = series_from({0: list(range(101))})
        assert series.series(50.0)[0] == pytest.approx(50.0)
        assert series.series(99.0)[0] == pytest.approx(99.0)

    def test_seconds_without_samples_skipped(self):
        series = series_from({0: [1.0], 5: [2.0]})
        assert list(series.seconds) == [0, 5]

    def test_throughput_counts_samples(self):
        series = series_from({0: [1.0, 2.0, 3.0], 1: [4.0]})
        assert list(series.throughput) == [3.0, 1.0]

    def test_negative_latency_rejected(self):
        recorder = LatencyRecorder()
        with pytest.raises(SimulationError):
            recorder.record(0, -1.0)

    def test_empty_finalize_rejected(self):
        with pytest.raises(SimulationError):
            LatencyRecorder().finalize()

    def test_needs_percentiles(self):
        with pytest.raises(SimulationError):
            LatencyRecorder(percentiles=[])

    def test_n_samples(self):
        recorder = LatencyRecorder()
        recorder.record(0, 1.0)
        recorder.record(0, 2.0)
        recorder.record(3, 5.0)
        assert recorder.n_samples == 3


class TestPercentileSeries:
    def test_violations(self):
        series = series_from({0: [100.0], 1: [600.0], 2: [700.0]})
        assert series.violations(50.0, threshold_ms=500.0) == 2

    def test_violation_summary(self):
        series = series_from({0: [600.0] * 10})
        summary = series.violation_summary(500.0)
        assert summary == {50.0: 1, 95.0: 1, 99.0: 1}

    def test_unknown_percentile(self):
        series = series_from({0: [1.0]})
        with pytest.raises(SimulationError):
            series.series(75.0)

    def test_top_fraction(self):
        series = series_from({i: [float(i)] for i in range(100)})
        top = series.top_fraction(50.0, fraction=0.05)
        assert list(top) == [95.0, 96.0, 97.0, 98.0, 99.0]

    def test_top_fraction_bounds(self):
        series = series_from({0: [1.0]})
        with pytest.raises(SimulationError):
            series.top_fraction(50.0, fraction=0.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            PercentileSeries(
                seconds=[0, 1],
                percentiles={50.0: np.array([1.0])},
            )
