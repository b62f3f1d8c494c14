"""Smoke tests for the experiment modules at minimal scale.

The bench harness runs the experiments at evaluation scale; these tests
only assert that each module executes and its result objects expose the
documented structure and basic sanity properties.
"""

import numpy as np
import pytest

from repro.experiments import (
    benchmark_setup,
    interval_rates,
    run_debounce_ablation,
    run_effcap_ablation,
    run_figure1,
    run_figure2,
    run_figure4,
    run_figure5,
    run_figure7,
    run_inflation_ablation,
    run_schedule_ablation,
    run_table1,
)
from repro.workload import LoadTrace


class TestCommon:
    def test_interval_rates_aggregates(self):
        trace = LoadTrace(np.full(20, 60.0), slot_seconds=6.0)
        rates = interval_rates(trace, interval_seconds=60.0)
        assert rates.shape == (2,)
        assert rates[0] == pytest.approx(10.0)

    def test_benchmark_setup_shapes(self):
        setup = benchmark_setup(eval_days=1, seed=1)
        assert setup.offered_tps.size == 8640            # one compressed day
        assert len(setup.train_interval_tps) == 28 * 144
        assert setup.spar.is_fitted


class TestLightExperiments:
    def test_figure1(self):
        result = run_figure1(n_days=2)
        assert result.peak_to_trough > 5.0
        assert len(result.trace) == 2 * 1440

    def test_figure2(self):
        result = run_figure2()
        assert result.step_cost > result.ideal_cost
        assert (result.allocated_servers >= 1).all()

    def test_figure4_case_lookup(self):
        result = run_figure4()
        assert result.case(3, 9).profile.rounds == 6
        with pytest.raises(KeyError):
            result.case(2, 2)

    def test_table1(self):
        result = run_table1()
        assert result.n_rounds == 11
        assert result.phases[0] == (1, 6)

    def test_figure5_small(self):
        result = run_figure5(
            train_days=9, eval_days=2, taus=(10, 30), track_stride=60,
            sweep_stride=97,
        )
        assert set(result.mre_by_tau) == {10, 30}
        assert result.actual_24h.size == result.predicted_24h.size

    def test_figure7_small(self):
        result = run_figure7(duration_seconds=800)
        assert 380 < result.saturation_tps < 500
        assert result.q == pytest.approx(0.65 * result.saturation_tps)


class TestAblations:
    def test_effcap(self):
        result = run_effcap_ablation()
        assert result.aware_feasible
        # The blind plan exists but underprovisions.
        assert result.blind_feasible
        assert result.blind_underprovision_intervals > 0

    def test_schedule(self):
        result = run_schedule_ablation(cases=((3, 14), (2, 7)))
        assert all(r.saved_rounds >= 1 for r in result.rows)

    def test_debounce(self):
        result = run_debounce_ablation(n_days=3)
        assert result.moves_with_debounce < result.moves_without_debounce

    def test_inflation(self):
        result = run_inflation_ablation(inflations=(1.0, 1.3), n_days=3)
        assert result.monotone_cost()


class TestFigure3:
    def test_planner_goal_scenario(self):
        from repro.experiments import run_figure3

        result = run_figure3()
        assert result.capacity_always_exceeds_demand
        assert result.machines_end == 4
        # Both scale-outs are single-machine steps, delayed past t=0.
        real_moves = [m for m in result.schedule if not m.is_noop]
        assert [m.machines_added for m in real_moves] == [1, 1]
        assert real_moves[0].start > 0


class TestFigure12:
    def test_serial_runner_is_a_fold_over_the_grid(self):
        """The figure is defined once: the points ``run_figure12`` plots
        are the grid's cell payloads, normalised."""
        from repro.experiments import fig12

        days, fractions = 1, (0.55, 0.65)   # the smallest season there is
        result = fig12.run_figure12(n_days=days, q_fractions=fractions)
        payloads = [
            fig12.run_cell(spec, None)
            for spec in fig12.grid(n_days=days, q_fractions=fractions)
        ]
        baseline = next(
            p["cost_machine_slots"] for p in payloads
            if p["family"] == "p-store-spar" and p["q_fraction"] == 0.65
        )
        rebuilt = [
            (
                p["family"],
                p.get("q_fraction"),
                pytest.approx(p["cost_machine_slots"] / baseline),
                pytest.approx(p["pct_time_insufficient"]),
            )
            for p in payloads
        ]
        points = [
            (
                row["strategy"],
                # static points carry NaN, static payloads no fraction
                None if row["q_fraction"] != row["q_fraction"]
                else row["q_fraction"],
                row["normalized_cost"],
                row["pct_insufficient"],
            )
            for row in result.normalized_points()
        ]
        assert points == rebuilt
        assert len(points) == 4 * len(fractions) + len(fig12.STATIC_SIZES)
