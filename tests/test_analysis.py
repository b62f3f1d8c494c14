"""Tests for the analysis helpers: CDFs, reports, and Table 2's text."""

import numpy as np
import pytest

from repro.analysis import (
    ascii_table,
    empirical_cdf,
    paper_vs_measured,
    series_block,
    sparkline,
    top_tail_cdf,
)
from repro.errors import SimulationError
from repro.experiments.tab02 import SlaRow, render_sla_table
from repro.hstore import LatencyRecorder


def percentile_series(values_by_second):
    recorder = LatencyRecorder()
    for second, values in values_by_second.items():
        for value in values:
            recorder.record(second, value)
    return recorder.finalize()


class TestEmpiricalCdf:
    def test_probability_at(self):
        cdf = empirical_cdf([1.0, 2.0, 3.0, 4.0])
        assert cdf.probability_at(2.5) == 0.5
        assert cdf.probability_at(0.5) == 0.0
        assert cdf.probability_at(4.0) == 1.0

    def test_quantile(self):
        cdf = empirical_cdf(list(range(101)))
        assert cdf.quantile(0.5) == pytest.approx(50.0)

    def test_quantile_bounds(self):
        with pytest.raises(SimulationError):
            empirical_cdf([1.0]).quantile(1.5)

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            empirical_cdf([])

    def test_top_tail_cdf(self):
        series = percentile_series({i: [float(i)] for i in range(100)})
        cdf = top_tail_cdf(series, 50.0, fraction=0.1)
        assert cdf.values.min() == 90.0


class TestReport:
    def test_ascii_table_alignment(self):
        text = ascii_table(["name", "n"], [["alpha", 1], ["b", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) == 1  # equal widths

    def test_ascii_table_row_mismatch(self):
        with pytest.raises(SimulationError):
            ascii_table(["a"], [[1, 2]])

    def test_sparkline_length(self):
        assert len(sparkline(np.sin(np.linspace(0, 6, 500)), width=40)) == 40

    def test_sparkline_flat(self):
        assert set(sparkline([5.0, 5.0, 5.0])) == {"▁"}

    def test_sparkline_empty_rejected(self):
        with pytest.raises(SimulationError):
            sparkline([])

    def test_series_block_contains_stats(self):
        block = series_block("load", [1.0, 2.0, 3.0])
        assert "min=1" in block and "max=3" in block

    def test_paper_vs_measured(self):
        text = paper_vs_measured(
            [{"metric": "p99 violations", "paper": 92, "measured": 88}]
        )
        assert "p99 violations" in text
        assert "92" in text and "88" in text


class TestSla:
    def test_render_sla_table(self):
        rows = [SlaRow("p-store", 0, 37, 92, 5.05)]
        text = render_sla_table(rows)
        assert "p-store" in text and "92" in text
