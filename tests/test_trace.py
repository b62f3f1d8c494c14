"""Tests for the LoadTrace container."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.workload import LoadTrace


def trace_of(values, slot_seconds=60.0):
    return LoadTrace(np.asarray(values, dtype=float), slot_seconds)


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            trace_of([])

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            trace_of([1.0, -2.0])

    def test_nan_rejected(self):
        with pytest.raises(SimulationError):
            trace_of([1.0, float("nan")])

    def test_2d_rejected(self):
        with pytest.raises(SimulationError):
            LoadTrace(np.ones((2, 2)), 60.0)

    def test_zero_slot_rejected(self):
        with pytest.raises(SimulationError):
            trace_of([1.0], slot_seconds=0.0)

    def test_values_are_immutable(self):
        trace = trace_of([1.0, 2.0])
        with pytest.raises(ValueError):
            trace.values[0] = 99.0


class TestProperties:
    def test_durations(self):
        trace = trace_of([1.0] * 1440)
        assert trace.duration_seconds == 86_400.0
        assert trace.duration_days == pytest.approx(1.0)
        assert trace.slots_per_day == 1440

    def test_peak_trough_mean(self):
        trace = trace_of([10.0, 20.0, 30.0])
        assert trace.peak == 30.0
        assert trace.trough == 10.0
        assert trace.mean == 20.0
        assert trace.peak_to_trough() == 3.0

    def test_peak_to_trough_undefined_at_zero(self):
        with pytest.raises(SimulationError):
            trace_of([0.0, 5.0]).peak_to_trough()

    def test_indexing_and_slicing(self):
        trace = trace_of([1.0, 2.0, 3.0, 4.0])
        assert trace[2] == 3.0
        sliced = trace[1:3]
        assert isinstance(sliced, LoadTrace)
        assert list(sliced) == [2.0, 3.0]


class TestTransforms:
    def test_scaled(self):
        trace = trace_of([1.0, 2.0]).scaled(10.0)
        assert list(trace) == [10.0, 20.0]

    def test_negative_scale_rejected(self):
        with pytest.raises(SimulationError):
            trace_of([1.0]).scaled(-1.0)

    def test_as_rate_per_second(self):
        trace = trace_of([120.0], slot_seconds=60.0)
        assert trace.as_rate_per_second()[0] == pytest.approx(2.0)

    def test_compressed_raises_rate(self):
        trace = trace_of([600.0] * 10, slot_seconds=60.0)
        fast = trace.compressed(10.0)
        assert fast.slot_seconds == 6.0
        assert fast.as_rate_per_second()[0] == pytest.approx(100.0)
        # 10x more offered rate than the original.
        assert fast.as_rate_per_second()[0] == pytest.approx(
            10 * trace.as_rate_per_second()[0]
        )

    def test_slice_days(self):
        trace = trace_of(list(range(3 * 24)), slot_seconds=3600.0)
        day2 = trace.slice_days(1, 1)
        assert len(day2) == 24
        assert day2[0] == 24.0

    def test_slice_days_out_of_range(self):
        trace = trace_of([1.0] * 24, slot_seconds=3600.0)
        with pytest.raises(SimulationError):
            trace.slice_days(0.5, 1.0)

    def test_split(self):
        trace = trace_of([1.0, 2.0, 3.0, 4.0])
        train, test = trace.split(3)
        assert list(train) == [1.0, 2.0, 3.0]
        assert list(test) == [4.0]

    def test_split_bounds(self):
        with pytest.raises(SimulationError):
            trace_of([1.0, 2.0]).split(2)

    def test_concat(self):
        joined = trace_of([1.0]).concat(trace_of([2.0]))
        assert list(joined) == [1.0, 2.0]

    def test_concat_slot_mismatch(self):
        with pytest.raises(SimulationError):
            trace_of([1.0], 60.0).concat(trace_of([2.0], 30.0))

    def test_smoothed_preserves_mean(self):
        rng = np.random.default_rng(1)
        trace = trace_of(rng.uniform(10, 20, 500))
        smooth = trace.smoothed(9)
        assert smooth.mean == pytest.approx(trace.mean, rel=0.02)

    def test_per_second_rates_interpolates(self):
        trace = trace_of([60.0, 120.0], slot_seconds=60.0)
        rates = trace.per_second_rates()
        assert rates.size == 120
        assert rates[0] == pytest.approx(1.0, abs=0.02)
        assert rates[-1] == pytest.approx(2.0, abs=0.02)
        assert np.all(np.diff(rates) >= -1e-12)  # monotone ramp

    def test_describe_mentions_name(self):
        trace = LoadTrace(np.array([1.0]), 60.0, name="hello")
        assert "hello" in trace.describe()
