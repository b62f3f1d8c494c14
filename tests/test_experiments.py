"""Tests for the experiment modules at minimal scale.

``pstore paper`` runs the experiments at evaluation scale; these tests
assert that each module executes and its result objects expose the
documented structure, that every serial runner is a fold over its own
grid's cells, and that EXPERIMENTS.md is what the registry renders.
"""

import pathlib
import re

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
        assert [m.after - m.before for m in real_moves] == [1, 1]
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


def _fig11_numbers(result):
    from repro.experiments.common import sim_payload

    return [sim_payload(result.regular_rate), sim_payload(result.boosted_rate)]


def _fig13_numbers(result):
    from repro.experiments.common import capacity_payload

    return [capacity_payload(run) for run in result.runs.values()]


def _chaos_numbers(result):
    from repro.experiments.common import sim_payload

    runs = [result.baseline] + [run.result for run in result.runs.values()]
    return [sim_payload(run) for run in runs]


def _sec5_numbers(result):
    return [{"model": m, "mre": v} for m, v in result.mre_by_model.items()]


class TestOneDefinition:
    """The runner's numbers are those of its own grid's ``run_cell``
    payloads: a figure is built in one place (fig12's case is above)."""

    @pytest.mark.parametrize(
        "name, seam, options, numbers",
        [
            ("fig11", "_run", {}, _fig11_numbers),
            ("fig13", "_run_point", {"n_days": 3}, _fig13_numbers),
            ("chaos", "_run", {}, _chaos_numbers),
            ("sec5", "_cell_mre", {}, _sec5_numbers),
        ],
    )
    def test_serial_runner_is_a_fold_over_the_grid(
        self, name, seam, options, numbers, monkeypatch
    ):
        """Runner and ``run_cell`` reach the simulation through one
        private function per module (``seam``).  The test wraps it to
        remember each cell's outcome, so one pass pays for both sides:
        the runner must call it for exactly the grid's cells, in order,
        and ``run_cell`` — handed those outcomes back — must produce the
        runner's numbers."""
        import importlib

        from repro.config import default_config
        from repro.experiments.registry import get_experiment
        from repro.runner import RunSpec

        defn = get_experiment(name)
        module = importlib.import_module(defn.module)
        real, seen = getattr(module, seam), {}

        def once(*args, **kwargs):
            spec = next(a for a in args if isinstance(a, RunSpec))
            if spec.label not in seen:
                seen[spec.label] = real(*args, **kwargs)
            return seen[spec.label]

        monkeypatch.setattr(module, seam, once)
        rebuilt = numbers(defn.run(**options))
        grid = defn.make_grid(**options)
        assert list(seen) == [spec.label for spec in grid]

        monkeypatch.setattr(
            module, seam,
            lambda *args, **kwargs: seen[
                next(a for a in args if isinstance(a, RunSpec)).label
            ],
        )
        payloads = [defn.cell_runner()(spec, default_config()) for spec in grid]
        # chaos cells also carry their recovery record; the simulated
        # numbers are the keys both sides have.
        assert [
            {key: payload[key] for key in mine}
            for payload, mine in zip(payloads, rebuilt)
        ] == rebuilt
        assert len(payloads) == len(rebuilt)


DOC = pathlib.Path(__file__).parent.parent / "EXPERIMENTS.md"
BLOCK = re.compile(
    r"<!-- pstore paper: (\w+) -->\n```text\n(.*?)\n```\n<!-- /pstore paper -->",
    re.S,
)


class TestExperimentsDoc:
    LIGHT = ["fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07",
             "fig08", "tab01"]

    def test_the_light_blocks_are_what_the_registry_renders(self, tmp_path,
                                                            capsys):
        """Byte for byte: ``--update`` on a copy changes nothing."""
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
