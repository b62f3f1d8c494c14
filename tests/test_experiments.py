"""Tests for the experiment modules at minimal scale.

``pstore paper`` runs the experiments at evaluation scale; these tests
assert that each module's cells run and fold into result objects with
the documented structure, and that EXPERIMENTS.md is what the registry
renders.
"""

import dataclasses
import pathlib
import re

import numpy as np
import pytest

from repro.config import default_config
from repro.experiments import (
    benchmark_setup,
    get_experiment,
    interval_rates,
    run_debounce_ablation,
    run_effcap_ablation,
    run_inflation_ablation,
    run_schedule_ablation,
)
from repro.runner import run_sweep
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
        result = get_experiment("fig01").run(n_days=2)
        assert result.peak_to_trough > 5.0
        assert result.daily_autocorrelation > 0.85

    def test_figure2(self):
        result = get_experiment("fig02").run()
        assert result.step_cost > result.ideal_cost
        assert result.min_servers >= 1 and result.min_slack >= -1e-9

    def test_figure4_case_lookup(self):
        result = get_experiment("fig04").run()
        assert result.case(3, 14).max_allocation_gap > result.case(
            3, 5
        ).max_allocation_gap
        with pytest.raises(KeyError):
            result.case(2, 2)

    def test_table1(self):
        result = get_experiment("tab01").run()
        assert result.n_rounds == 11
        assert result.phases[0] == (1, 6)

    def test_figure5_small(self):
        result = get_experiment("fig05").run(taus=(10, 30), eval_days=2)
        assert set(result.mre_by_tau) == {10, 30}
        assert result.mre_60min_pct == pytest.approx(
            100.0 * result.mre_by_tau[30]
        )

    def test_figure7_small(self):
        result = get_experiment("fig07").run(duration_seconds=800)
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
        result = get_experiment("fig03").run()
        assert result.capacity_always_exceeds_demand
        assert result.machines_end == 4
        # Both scale-outs are single-machine steps, delayed past t=0.
        assert [after - before for before, after, _, _ in result.moves] == [1, 1]
        assert result.moves[0][2] > 0

    def test_the_cell_plans_under_the_config_it_is_keyed_by(self):
        """A cache entry is keyed by the config, so the payload must
        depend on it: six times the migration time D stretches both
        moves, and the default payload is the one the figure shows."""
        grid = get_experiment("fig03").make_grid()
        config = default_config()
        default = run_sweep(grid, config=config)
        slow = run_sweep(
            grid,
            config=dataclasses.replace(config, d_seconds=6 * config.d_seconds),
        )
        (payload,) = default.payloads.values()
        assert payload["moves"] == [[2, 3, 2, 3], [3, 4, 6, 7]]
        assert payload["machines_end"] == 4
        (stretched,) = slow.payloads.values()
        assert stretched["moves"] == [[2, 3, 2, 5], [3, 4, 6, 8]]
        assert slow.result_hash != default.result_hash


class TestFigure12:
    def test_serial_runner_is_a_fold_over_the_grid(self):
        """The figure is defined once: the points ``run`` plots are the
        grid's cell payloads, normalised."""
        from repro.experiments import fig12

        defn = get_experiment("fig12")
        days, fractions = 1, (0.55, 0.65)   # the smallest season there is
        result = defn.run(n_days=days, q_fractions=fractions)
        payloads = [
            defn.cell_runner()(spec, default_config())
            for spec in defn.make_grid(n_days=days, q_fractions=fractions)
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


DOC = pathlib.Path(__file__).parent.parent / "EXPERIMENTS.md"
BLOCK = re.compile(
    r"<!-- pstore paper: (\w+) -->\n```text\n(.*?)\n```\n<!-- /pstore paper -->",
    re.S,
)


class TestExperimentsDoc:
    #: Every artefact but the two season-long ones (fig12, fig13), which
    #: the CI ``paper`` job regenerates.
    LIGHT = ["fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07",
             "fig08", "fig09", "fig10", "fig11", "tab01", "tab02", "sec5",
             "chaos"]

    def test_the_light_blocks_are_what_the_registry_renders(self, tmp_path,
                                                            capsys):
        """Byte for byte: ``--update`` on a copy changes nothing, so every
        number a block states is what its grid's cells measure now."""
        from repro.cli import main

        copy = tmp_path / "EXPERIMENTS.md"
        copy.write_bytes(DOC.read_bytes())
        assert main(["paper", *self.LIGHT, "--update", str(copy)]) == 0
        assert copy.read_bytes() == DOC.read_bytes()
        printed = capsys.readouterr().out
        for name, block in BLOCK.findall(DOC.read_text()):
            if name in self.LIGHT:
                assert block in printed, name

    def test_every_artefact_has_a_block_and_deviations_are_pinned(self):
        """A claim that stops holding cannot be regenerated into the doc
        silently: the rows reading ``no`` are listed here by name."""
        from repro.experiments.registry import list_experiments

        blocks = dict(BLOCK.findall(DOC.read_text()))
        assert sorted(blocks) == sorted(
            defn.name for defn in list_experiments() if defn.claims
        )
        failing = set()
        for name, block in blocks.items():
            table = block[block.rindex("\nmetric "):].splitlines()[1:]
            header, rule, rows = table[0], table[1], table[2:]
            # columns are right-aligned under the dashed rule
            ends = [m.end() for m in re.finditer(r"-+", rule)]
            holds = header.split().index("holds")
            for row in rows:
                cells = [
                    row[start:end].strip()
                    for start, end in zip([0] + ends, ends)
                ]
                assert cells[holds] in ("yes", "no", "-"), (name, row)
                if cells[holds] == "no":
                    failing.add((name, cells[0]))
        assert failing == {
            ("fig09", "static-10 is best at the tails (p99 violations)"),
            ("fig10", "static-10 is best at the tails"),
            ("tab02", "static-10 is best at the tails (fewest violations)"),
        }
