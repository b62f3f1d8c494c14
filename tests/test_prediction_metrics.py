"""Tests for forecast-accuracy metrics."""

import pytest

from repro.errors import PredictionError
from repro.prediction import mean_relative_error


class TestMre:
    def test_known_value(self):
        actual = [100.0, 200.0]
        predicted = [110.0, 180.0]
        # (0.10 + 0.10) / 2
        assert mean_relative_error(actual, predicted) == pytest.approx(0.10)

    def test_perfect_prediction(self):
        assert mean_relative_error([5.0, 7.0], [5.0, 7.0]) == 0.0

    def test_zero_actuals_excluded(self):
        assert mean_relative_error([0.0, 100.0], [50.0, 110.0]) == pytest.approx(
            0.10
        )

    def test_all_zero_actuals_raise(self):
        with pytest.raises(PredictionError):
            mean_relative_error([0.0, 0.0], [1.0, 1.0])

    def test_shape_mismatch(self):
        with pytest.raises(PredictionError):
            mean_relative_error([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(PredictionError):
            mean_relative_error([], [])
