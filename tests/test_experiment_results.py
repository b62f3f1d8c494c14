"""Unit tests for experiment result assembly, using synthetic runs.

The heavy experiments run at scale under ``pstore paper``; here we test
the result-object logic (Table 2 assembly, CDF tables, Fig. 11
comparisons) against hand-built
:class:`~repro.sim.simulator.SimulationResult` objects, which is cheap.
"""

import numpy as np
import pytest

from repro.experiments.fig09 import Figure9Result
from repro.experiments.fig10 import run_figure10
from repro.experiments.tab02 import PAPER_TABLE2, run_table2
from repro.hstore import PercentileSeries
from repro.sim import SimulationResult


def fake_run(name, p99_levels, machines=4.0, seconds=100):
    """A synthetic SimulationResult with controllable p99 series."""
    p99 = np.asarray(p99_levels, dtype=float)
    if p99.size != seconds:
        p99 = np.resize(p99, seconds)
    p50 = p99 * 0.2
    p95 = p99 * 0.7
    latency = PercentileSeries(
        seconds=np.arange(seconds),
        percentiles={50.0: p50, 95.0: p95, 99.0: p99},
        throughput=np.full(seconds, 100.0),
    )
    return SimulationResult(
        strategy_name=name,
        latency=latency,
        offered_tps=np.full(seconds, 100.0),
        completed_tps=np.full(seconds, 100.0),
        machines=np.full(seconds, machines),
        migrating=np.zeros(seconds, dtype=bool),
        emergencies=0,
        moves_started=0,
        sla_ms=500.0,
    )


@pytest.fixture
def synthetic_figure9():
    runs = {
        # static-10: always fast.
        "static-10": fake_run("static-10", [100.0], machines=10.0),
        # static-4: slow for 30 of 100 seconds.
        "static-4": fake_run("static-4", [100.0] * 70 + [900.0] * 30),
        # reactive: slow for 20 seconds.
        "reactive": fake_run("reactive", [100.0] * 80 + [900.0] * 20),
        # p-store: slow for 5 seconds.
        "p-store": fake_run("p-store", [100.0] * 95 + [900.0] * 5, machines=5.0),
    }
    return Figure9Result(runs=runs, setup=None)  # type: ignore[arg-type]


class TestTable2Assembly:
    def test_rows_in_paper_order(self, synthetic_figure9):
        result = run_table2(figure9=synthetic_figure9)
        assert [r.approach for r in result.rows] == [
            "static-10", "static-4", "reactive", "p-store",
        ]

    def test_violation_counts(self, synthetic_figure9):
        result = run_table2(figure9=synthetic_figure9)
        assert result.row("static-4").violations_p99 == 30
        assert result.row("p-store").violations_p99 == 5
        # p95 = 0.7 * p99 = 630 ms also violates; p50 = 180 ms does not.
        assert result.row("p-store").violations_p95 == 5
        assert result.row("p-store").violations_p50 == 0

    def test_reduction_headline(self, synthetic_figure9):
        result = run_table2(figure9=synthetic_figure9)
        # totals: reactive = 40, p-store = 10 -> 75% fewer.
        assert result.pstore_vs_reactive_reduction_pct == pytest.approx(75.0)

    def test_total_violations_unknown_approach(self, synthetic_figure9):
        result = run_table2(figure9=synthetic_figure9)
        with pytest.raises(KeyError):
            result.row("clairvoyant")

    def test_paper_reference_rows_frozen(self):
        pstore = next(r for r in PAPER_TABLE2 if r.approach == "p-store")
        assert (pstore.violations_p95, pstore.violations_p99) == (37, 92)
        assert pstore.average_machines == pytest.approx(5.05)


class TestFigure10Assembly:
    def test_cdfs_for_all_percentiles_and_runs(self, synthetic_figure9):
        result = run_figure10(figure9=synthetic_figure9)
        assert set(result.cdfs) == {50.0, 95.0, 99.0}
        for q in result.cdfs:
            assert set(result.cdfs[q]) == set(synthetic_figure9.runs)

    def test_probability_table_ordering(self, synthetic_figure9):
        result = run_figure10(figure9=synthetic_figure9)
        table = result.probability_table(99.0, probes=(500.0,))
        # Everyone's top-1% is the 900 ms tail except static-10.
        assert table["static-10"][500.0] == 1.0
        assert table["static-4"][500.0] == 0.0

    def test_fraction_controls_tail_size(self, synthetic_figure9):
        wide = run_figure10(figure9=synthetic_figure9, fraction=0.5)
        cdf = wide.cdfs[99.0]["p-store"]
        # Half of 100 seconds -> 50 samples, mostly the fast 100 ms ones.
        assert cdf.values.size == 50
        assert cdf.probability_at(500.0) > 0.5


class TestFigure9Accessors:
    def test_named_properties(self, synthetic_figure9):
        assert synthetic_figure9.pstore.strategy_name == "p-store"
        assert synthetic_figure9.reactive.strategy_name == "reactive"
        assert synthetic_figure9.static_peak.strategy_name == "static-10"
        assert synthetic_figure9.static_trough.strategy_name == "static-4"
