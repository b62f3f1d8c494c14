"""Tests for the pstore command-line interface."""

import pytest

from repro.cli import main
from repro.workload import read_trace_csv, write_trace_csv


@pytest.fixture
def small_trace_csv(tmp_path):
    """A 10-day, 5-minute trace small enough for fast CLI runs."""
    from repro.workload import b2w_like_trace

    trace = b2w_like_trace(
        n_days=10, slot_seconds=300.0, seed=3, base_level=1250.0 * 300.0
    )
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    return path


class TestGenerate:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "gen.csv"
        code = main(["generate", str(out), "--days", "2", "--seed", "5"])
        assert code == 0
        trace = read_trace_csv(out)
        assert trace.duration_days == pytest.approx(2.0)
        assert "wrote" in capsys.readouterr().out

    def test_peak_calibration(self, tmp_path):
        out = tmp_path / "gen.csv"
        main(["generate", str(out), "--days", "3", "--peak-tps", "500"])
        trace = read_trace_csv(out)
        peak_tps = trace.as_rate_per_second().max()
        assert 300 <= peak_tps <= 900


class TestPredict:
    def test_spar_forecast(self, small_trace_csv, capsys):
        code = main(
            [
                "predict",
                str(small_trace_csv),
                "--train-days",
                "9",
                "--horizon",
                "6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SPAR forecast" in out
        assert out.count("\n") > 6

    def test_train_days_too_large(self, small_trace_csv, capsys):
        code = main(
            ["predict", str(small_trace_csv), "--train-days", "99"]
        )
        assert code == 2

    def test_ar_model_selectable(self, small_trace_csv, capsys):
        code = main(
            [
                "predict",
                str(small_trace_csv),
                "--model",
                "ar",
                "--train-days",
                "9",
                "--horizon",
                "3",
            ]
        )
        assert code == 0
        assert "AR forecast" in capsys.readouterr().out


class TestPlan:
    def test_plan_prints_schedule(self, small_trace_csv, capsys):
        code = main(
            [
                "plan",
                str(small_trace_csv),
                "--train-days",
                "9",
                "--horizon",
                "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "current load" in out
        assert "=>" in out


class TestSimulate:
    def test_static_strategy(self, capsys):
        code = main(["simulate", "static:6", "--days", "2"])
        assert code == 0
        assert "static-6" in capsys.readouterr().out

    def test_reactive_strategy(self, capsys):
        code = main(["simulate", "reactive", "--days", "2"])
        assert code == 0
        assert "reactive" in capsys.readouterr().out

    def test_simple_strategy_spec(self, capsys):
        code = main(["simulate", "simple:6/2", "--days", "2"])
        assert code == 0
        assert "simple-2/6" in capsys.readouterr().out

    def test_unknown_strategy(self, capsys):
        code = main(["simulate", "quantum", "--days", "2"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestExperiment:
    @pytest.mark.parametrize("name", ["fig02", "fig04", "tab01"])
    def test_lightweight_experiments(self, name, capsys):
        """One artefact runs as ``pstore paper ID``."""
        code = main(["paper", name])
        assert code == 0
        assert f"===== {name} =====" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self, capsys):
        """``pstore experiment`` takes no id: running one is ``paper``."""
        with pytest.raises(SystemExit) as exit_info:
            main(["experiment", "fig99"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_list_experiments(self, capsys):
        code = main(["experiment"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("fig01", "fig09", "chaos", "smoke"):
            assert name in out


class TestPaper:
    def test_named_artefacts_print_their_reports(self, capsys):
        code = main(["paper", "fig02", "tab01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "===== fig02 =====" in out and "===== tab01 =====" in out
        assert "step allocation overhead vs ideal" in out
        assert "rounds for 3 -> 14" in out
        header = [line for line in out.splitlines()
                  if line.startswith("metric")]
        assert len(header) == 2
        assert all("holds" in line.split() for line in header)

    def test_unknown_artefact_rejected(self, capsys):
        code = main(["paper", "fig02", "fig99"])
        assert code == 1
        captured = capsys.readouterr()
        assert "unknown experiment" in captured.err
        assert captured.out == ""  # nothing runs before the names resolve

    @pytest.mark.parametrize(
        "doc",
        [
            "# no marker at all\n",
            "<!-- pstore paper: fig02 -->\nnever closed\n",
            "<!-- pstore paper: fig02 -->\n<!-- pstore paper: tab01 -->\n"
            "<!-- /pstore paper -->\n",
        ],
    )
    def test_update_refuses_a_missing_or_unclosed_marker(
        self, doc, tmp_path, capsys
    ):
        path = tmp_path / "EXPERIMENTS.md"
        path.write_text(doc)
        code = main(["paper", "fig02", "--update", str(path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert captured.out == ""  # refused before anything ran
        assert path.read_text() == doc

    def test_update_rewrites_only_the_named_block(self, tmp_path, capsys):
        path = tmp_path / "doc.md"
        path.write_text(
            "prose\n<!-- pstore paper: fig02 -->\nstale\n"
            "<!-- /pstore paper -->\n"
            "<!-- pstore paper: tab01 -->\nkept\n<!-- /pstore paper -->\n"
        )
        assert main(["paper", "fig02", "--update", str(path)]) == 0
        text = path.read_text()
        assert text.startswith("prose\n<!-- pstore paper: fig02 -->\n```text\n")
        assert "stale" not in text and "holds" in text
        assert text.endswith(
            "<!-- pstore paper: tab01 -->\nkept\n<!-- /pstore paper -->\n"
        )


    def test_a_shared_cell_runs_once(self, capsys, monkeypatch):
        """fig10 and tab02 fold fig09's cells: one sweep over the three
        artefacts runs those four simulations once, not three times."""
        from repro import runner

        reports = []
        run_sweep = runner.run_sweep

        def spy(*args, **kwargs):
            reports.append(run_sweep(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(runner, "run_sweep", spy)
        assert main(["paper", "fig09", "fig10", "tab02"]) == 0
        (report,) = reports
        assert len(report.cells) == 12
        assert report.executed == 4
        out = capsys.readouterr().out
        for name in ("fig09", "fig10", "tab02"):
            assert f"===== {name} =====" in out

    def test_telemetry_out_exports_the_cells_records(self, tmp_path, capsys):
        import json

        from repro.telemetry.causal import CHRONICLE_SCHEMA
        from repro.telemetry.export import SPANS_SCHEMA

        out = tmp_path / "run"
        assert main(["paper", "fig11", "--telemetry-out", str(out)]) == 0
        assert "===== fig11 =====" in capsys.readouterr().out
        chronicle = [
            json.loads(line)
            for line in (out / "chronicle.jsonl").read_text().splitlines()
        ]
        assert chronicle[0] == {"schema": CHRONICLE_SCHEMA}
        records = chronicle[1:]
        assert records
        assert {r["cell"] for r in records} == {
            "fig11/rate-R#33", "fig11/rate-Rx8#33",
        }
        assert all(r["id"] and r["kind"] for r in records)
        assert any(r["kind"] == "plan.decision" for r in records)
        spans = [
            json.loads(line)
            for line in (out / "spans.jsonl").read_text().splitlines()
        ]
        assert spans[0] == {"schema": SPANS_SCHEMA}
        assert {s["attrs"]["cell"] for s in spans[1:]} == {
            "fig11/rate-R#33", "fig11/rate-Rx8#33",
        }


class TestSweep:
    def test_telemetry_out_without_out_exports_the_cells_records(
        self, tmp_path, capsys
    ):
        import json

        from repro.experiments.registry import get_experiment

        out = tmp_path / "run"
        assert main([
            "sweep", "smoke", "--cache-dir", str(tmp_path / "cache"),
            "--telemetry-out", str(out),
        ]) == 0
        assert "smoke:" in capsys.readouterr().out
        labels = {s.label for s in get_experiment("smoke").make_grid()}
        chronicle, spans = (
            [json.loads(line) for line in (out / name).read_text().splitlines()]
            for name in ("chronicle.jsonl", "spans.jsonl")
        )
        assert len(chronicle) > 1 and len(spans) > 1    # past the header
        assert {r["cell"] for r in chronicle[1:]} <= labels
        assert any(r["kind"] == "migration.start" for r in chronicle[1:])
        assert {s["attrs"]["cell"] for s in spans[1:]} == labels

    def test_a_warm_cache_still_exports_every_record(self, tmp_path, capsys):
        """A cache entry keeps no records, so a recording sweep runs its
        cells again: the second export has as many lines as the first."""
        cache = str(tmp_path / "cache")
        counts = []
        for run in ("cold", "warm"):
            telemetry, out = tmp_path / f"{run}-tel", tmp_path / f"{run}-out"
            assert main([
                "sweep", "smoke", "--cache-dir", cache,
                "--telemetry-out", str(telemetry), "--out", str(out),
            ]) == 0
            counts.append([
                len((directory / name).read_text().splitlines())
                for directory in (telemetry, out)
                for name in ("chronicle.jsonl", "spans.jsonl")
            ])
        capsys.readouterr()
        assert counts[0] == counts[1]
        assert min(counts[0]) > 1


class TestPlanWithConfigFile:
    def test_custom_config_respected(self, small_trace_csv, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_text('{"q": 150.0, "q_hat": 320.0}')
        code = main(
            [
                "plan",
                str(small_trace_csv),
                "--train-days",
                "9",
                "--horizon",
                "8",
                "--config",
                str(config_path),
            ]
        )
        assert code in (0, 1)  # tighter Q may make the plan infeasible
        out = capsys.readouterr().out
        assert "current load" in out or "no feasible plan" in out

    def test_bad_config_file(self, small_trace_csv, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_text('{"nope": 1}')
        code = main(
            ["plan", str(small_trace_csv), "--config", str(config_path)]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err


def _serve(*args):
    return main([
        "serve", "--source", "replay:b2w", "--speed", "0", "--out", "none",
        "--status-every", "0", "--quiet", *args,
    ])


class TestServePredictor:
    """``pstore serve`` hands its model a window that model can train
    on, offline or online."""

    @pytest.mark.parametrize("train_days", [3, 8])
    def test_spar_takes_the_periods_the_window_fits(self, train_days, capsys):
        code = _serve(
            "--predictor", "spar", "--slot-seconds", "3600", "--days", "2",
            "--train-days", str(train_days),
        )
        assert code == 0, capsys.readouterr().err
        assert "served 48 intervals" in capsys.readouterr().out

    def test_spar_names_its_true_floor(self, capsys):
        code = _serve(
            "--predictor", "spar", "--slot-seconds", "3600", "--days", "2",
            "--train-days", "2",
        )
        assert code == 1
        assert "--train-days >= 3" in capsys.readouterr().err

    def test_online_arma_waits_for_what_its_fit_needs(self, capsys):
        """Its first fit used to be tried at observation 83 of the 92
        ARMA(30,10) needs, ending the service there."""
        code = _serve("--predictor", "arma", "--train-days", "0", "--days", "1")
        assert code == 0, capsys.readouterr().err
        out = capsys.readouterr().out
        assert "served 288 intervals" in out and "mode=predictive" in out

    def test_a_pool_of_no_machines_is_refused(self, capsys):
        """``--max-machines 0`` used to serve a cluster that clamped
        every move away."""
        code = _serve(
            "--predictor", "ar", "--train-days", "0", "--days", "1",
            "--max-machines", "0",
        )
        assert code == 1
        assert "machine pool must be >= 1" in capsys.readouterr().err


class TestErrorHandling:
    """repro.errors exceptions (and missing files) must exit nonzero
    with a one-line ``error:`` message, never a raw traceback."""

    def test_missing_trace_file_is_one_line_error(self, capsys):
        code = main(["plan", "/nonexistent/trace.csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_bad_static_machine_count(self, capsys):
        code = main(["simulate", "static:abc", "--days", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert "static:<N>" in err
        assert "Traceback" not in err

    def test_bad_simple_spec(self, capsys):
        code = main(["simulate", "simple:6", "--days", "2"])
        assert code == 1
        assert "simple:<day>/<night>" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "exc_name", ["SimulationError", "MigrationError", "ConfigError"]
    )
    def test_domain_errors_exit_nonzero(self, exc_name, capsys, monkeypatch):
        import repro.cli as cli_mod
        from repro import errors

        exc = getattr(errors, exc_name)

        def boom(args):
            raise exc("synthetic failure")

        monkeypatch.setitem(cli_mod._COMMANDS, "plan", boom)
        code = main(["plan", "whatever.csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: synthetic failure\n"
