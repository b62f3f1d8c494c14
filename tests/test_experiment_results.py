"""Unit tests for experiment folds, using synthetic runs.

The heavy experiments run at scale under ``pstore paper``; here we test
the folds (Table 2 assembly, CDF tables) over the cell payloads of
hand-built :class:`~repro.sim.simulator.SimulationResult` objects, which
is cheap, and pin the report text those folds render to.
"""

import numpy as np
import pytest

from repro.experiments import fig09, fig10, tab02
from repro.experiments.fig09 import STATIC10_NOTE
from repro.experiments.registry import get_experiment
from repro.experiments.tab02 import PAPER_TABLE2
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
    """Fig. 9's four cells as payloads, the way its grid labels them."""
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
    return {
        f"fig09/{name}#21": fig09.cell_payload(run) for name, run in runs.items()
    }


class TestTable2Assembly:
    def test_rows_in_paper_order(self, synthetic_figure9):
        result = tab02.fold(synthetic_figure9)
        assert [r.approach for r in result.rows] == [
            "static-10", "static-4", "reactive", "p-store",
        ]

    def test_violation_counts(self, synthetic_figure9):
        result = tab02.fold(synthetic_figure9)
        assert result.row("static-4").violations_p99 == 30
        assert result.row("p-store").violations_p99 == 5
        # p95 = 0.7 * p99 = 630 ms also violates; p50 = 180 ms does not.
        assert result.row("p-store").violations_p95 == 5
        assert result.row("p-store").violations_p50 == 0

    def test_reduction_headline(self, synthetic_figure9):
        result = tab02.fold(synthetic_figure9)
        # totals: reactive = 40, p-store = 10 -> 75% fewer.
        assert result.pstore_vs_reactive_reduction_pct == pytest.approx(75.0)

    def test_total_violations_unknown_approach(self, synthetic_figure9):
        result = tab02.fold(synthetic_figure9)
        with pytest.raises(KeyError):
            result.row("clairvoyant")

    def test_paper_reference_rows_frozen(self):
        pstore = next(r for r in PAPER_TABLE2 if r.approach == "p-store")
        assert (pstore.violations_p95, pstore.violations_p99) == (37, 92)
        assert pstore.average_machines == pytest.approx(5.05)


class TestFigure10Assembly:
    def test_cdfs_for_all_percentiles_and_runs(self, synthetic_figure9):
        result = fig10.fold(synthetic_figure9)
        assert set(result.cdfs) == {50.0, 95.0, 99.0}
        for q in result.cdfs:
            assert set(result.cdfs[q]) == {
                "static-10", "static-4", "reactive", "p-store",
            }

    def test_probability_table_ordering(self, synthetic_figure9):
        result = fig10.fold(synthetic_figure9)
        table = result.probability_table(99.0, probes=(500.0,))
        # Everyone's top-1% is the 900 ms tail except static-10.
        assert table["static-10"][500.0] == 1.0
        assert table["static-4"][500.0] == 0.0


class TestFigure9Accessors:
    def test_named_properties(self, synthetic_figure9):
        result = fig09.fold(synthetic_figure9)
        assert result.pstore["strategy"] == "p-store"
        assert result.reactive["strategy"] == "reactive"


#: ``get_experiment(name).render(result)`` -- the text ``pstore paper``
#: splices into EXPERIMENTS.md -- for the synthetic Figure 9 above and a
#: one-day, two-Q Figure 12.  Recorded before Table 2's rows, Fig. 10's
#: probe table and Fig. 12's curves moved into their experiment modules,
#: and kept when they became folds over cell payloads; any change to
#: these strings is a change to the published report.
#: ``{static10_note}`` stands for ``fig09.STATIC10_NOTE``.
RENDERED_TAB02 = """\
static-10: p50=0 p95=0 p99=0 avg machines 10.00
static-4: p50=0 p95=30 p99=30 avg machines 4.00
reactive: p50=0 p95=20 p99=20 avg machines 4.00
p-store: p50=0 p95=5 p99=5 avg machines 5.00
p-store vs reactive: 75% fewer violations

Table 2 — SLA violations (reuses fig09 cells)
metric                                              paper              measured         holds  note
--------------------------------------------------  -----------------  ---------------  -----  ----------------------------------------------------------------------
  static-10 (p50/p95/p99 violations, avg machines)     0/13/25, 10.00     0/0/0, 10.00      -
   static-4 (p50/p95/p99 violations, avg machines)    0/157/249, 4.00    0/30/30, 4.00      -
   reactive (p50/p95/p99 violations, avg machines)   35/220/327, 4.02    0/20/20, 4.00      -
    p-store (p50/p95/p99 violations, avg machines)      0/37/92, 5.05      0/5/5, 5.00      -
             P-Store vs reactive: fewer violations          72% fewer        75% fewer    yes
                   P-Store machines vs peak static  5.05 vs 10 (~50%)       5.00 vs 10    yes
static-10 is best at the tails (fewest violations)  38 vs P-Store 129  0 vs P-Store 10    yes  {static10_note}
               P-Store violates less than reactive         129 vs 582         10 vs 40    yes
               P-Store violates less than static-4         129 vs 406         10 vs 60    yes"""

RENDERED_FIG10 = """\
static-10 (p99 tail): P(<= 500ms) = 1.00, P(<= 1000ms) = 1.00
static-4 (p99 tail): P(<= 500ms) = 0.00, P(<= 1000ms) = 1.00
reactive (p99 tail): P(<= 500ms) = 0.00, P(<= 1000ms) = 1.00
p-store (p99 tail): P(<= 500ms) = 0.00, P(<= 1000ms) = 1.00

Fig. 10 — tail-latency CDFs (reuses fig09 cells)
metric                                paper   measured                                           holds  note
------------------------------------  ------  -------------------------------------------------  -----  ----------------------------------------------------------------------
reactive is worst in all three plots  Fig 10   P(p99 <= 1000 ms): reactive 1.00 vs p-store 1.00    yes                 holds = P-Store's p99 tail CDF dominates at every probe
      static-10 is best at the tails  Fig 10  P(p99 <= 1000 ms): static-10 1.00 vs p-store 1.00    yes  {static10_note}"""

RENDERED_FIG12 = """\
p-store-spar (Q x 0.55): cost 1.14, insufficient 0.00%
p-store-spar (Q x 0.65): cost 1.00, insufficient 0.00%
p-store-oracle (Q x 0.55): cost 1.14, insufficient 0.00%
p-store-oracle (Q x 0.65): cost 1.00, insufficient 0.00%
reactive (Q x 0.55): cost 0.87, insufficient 0.69%
reactive (Q x 0.65): cost 0.85, insufficient 0.69%
simple (Q x 0.55): cost 1.56, insufficient 0.00%
simple (Q x 0.65): cost 1.28, insufficient 0.00%
static-4 (Q x -): cost 1.12, insufficient 0.35%
static-6 (Q x -): cost 1.69, insufficient 0.00%
static-8 (Q x -): cost 2.25, insufficient 0.00%
static-10 (Q x -): cost 2.81, insufficient 0.00%

Fig. 12 — capacity-cost curves over the season
metric                                paper                          measured                          holds  note
------------------------------------  -----------------------------  --------------------------------  -----  -----------------------------------------------------
                  oracle bounds SPAR  P-Store SPAR 'not far behind'  avg insufficiency 0.00% vs 0.00%    yes
reactive violates at comparable cost     purple curve above P-Store  reactive min insufficiency 0.69%    yes  holds = SPAR's average is under reactive's best + 0.5
         simple breaks on deviations       green curve far right/up    simple max insufficiency 0.00%     no"""


class TestRenderedReports:
    def test_table2_text(self, synthetic_figure9):
        result = tab02.fold(synthetic_figure9)
        assert get_experiment("tab02").render(result) == RENDERED_TAB02.format(
            static10_note=STATIC10_NOTE
        )

    def test_figure10_text(self, synthetic_figure9):
        result = fig10.fold(synthetic_figure9)
        assert get_experiment("fig10").render(result) == RENDERED_FIG10.format(
            static10_note=STATIC10_NOTE
        )

    def test_figure12_text(self):
        result = get_experiment("fig12").run(n_days=1, q_fractions=(0.55, 0.65))
        assert get_experiment("fig12").render(result) == RENDERED_FIG12
