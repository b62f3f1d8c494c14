"""Tests for the repro.api facade (run / sweep / load_trace /
fit_predictor) and its top-level re-exports."""

import json

import numpy as np
import pytest

import repro
from repro.api import PREDICTORS, RunResult
from repro.errors import ConfigurationError, StrategySpecError, SweepError
from repro.runner import SweepReport, run_sweep


class TestFacadeSurface:
    def test_top_level_re_exports(self):
        for name in ("run", "sweep", "load_trace", "fit_predictor",
                     "RunResult", "RunSpec", "StrategySpec"):
            assert hasattr(repro, name), name
            assert name in repro.__all__

    def test_version_bumped(self):
        major, minor, _patch = repro.__version__.split(".")
        assert (int(major), int(minor)) >= (1, 1)

    def test_the_version_has_one_source(self):
        """pyproject.toml takes the version from ``repro.__version__``;
        a literal under ``[project]`` would drift from it again."""
        import pathlib
        import re

        text = (
            pathlib.Path(__file__).parent.parent / "pyproject.toml"
        ).read_text()
        project = text.split("[project]\n", 1)[1].split("\n[", 1)[0]
        assert not re.search(r"^version\s*=", project, re.M), project
        assert re.search(r'^dynamic\s*=\s*\["version"\]', project, re.M)
        assert 'version = { attr = "repro.__version__" }' in text


class TestRun:
    def test_static_run_round_trip(self):
        result = repro.run(strategy="static:6", days=2, seed=3)
        assert isinstance(result, RunResult)
        assert result.strategy == "static:machines=6"
        assert result.strategy_name == "static-6"
        assert result.days == 2
        assert result.slots == 2 * 288
        assert result.average_machines == pytest.approx(6.0)

        decoded = json.loads(result.to_json())
        assert decoded == result.to_dict()
        assert "detail" not in decoded  # heavyweight series stay out
        assert "static-6" in result.summary()

    def test_detail_is_full_capacity_result(self):
        result = repro.run(strategy="static:4", days=2, seed=3)
        assert result.detail is not None
        assert len(result.detail.machines) == result.slots

    def test_deterministic_for_same_seed(self):
        a = repro.run(strategy="simple:6/3", days=2, seed=5)
        b = repro.run(strategy="simple:6/3", days=2, seed=5)
        # detail is excluded from comparison, so dataclass equality is
        # exactly "same headline numbers".
        assert a == b

    def test_reactive_gets_cli_default_patience(self):
        result = repro.run(strategy="reactive", days=2, seed=3)
        assert "patience=12" in result.strategy

    def test_bad_strategy_raises_typed_error(self):
        with pytest.raises(StrategySpecError):
            repro.run(strategy="quantum", days=2)

    def test_explicit_trace(self):
        trace = repro.b2w_like_trace(
            n_days=30, slot_seconds=300.0, seed=9,
            base_level=1450.0 * 300.0,
        )
        result = repro.run(strategy="static:6", days=2, seed=9, trace=trace)
        assert result.slots == 2 * 288


class TestSweep:
    def test_sweep_by_name_and_cache_round_trip(self, tmp_path):
        grid_options = {
            "strategies": ("static:4", "static:6"),
            "seeds": (7,),
            "n_days": 1,
        }
        cold = repro.sweep(
            "smoke", cache_dir=tmp_path, grid_options=grid_options
        )
        assert isinstance(cold, SweepReport)
        assert len(cold.payloads) == 2
        assert cold.executed == 2
        assert cold.hits == 0

        warm = repro.sweep(
            "smoke", cache_dir=tmp_path, grid_options=grid_options
        )
        assert warm.hits == 2
        assert warm.executed == 0
        assert warm.result_hash == cold.result_hash

        decoded = json.loads(json.dumps(warm.manifest()))
        assert {c["label"]: c["payload"] for c in decoded["cells"]} == (
            warm.payloads
        )
        assert decoded["result_hash"] == warm.result_hash
        assert warm.summary().startswith("2 cells, 2 cached, 0 executed")

    def test_sweep_is_run_sweep_over_the_registered_grid(self, tmp_path):
        from repro.experiments import smoke

        report = repro.sweep("smoke", cache_dir=tmp_path)
        direct = run_sweep(smoke.grid())
        assert report.payloads == direct.payloads
        assert report.result_hash == direct.result_hash

    def test_sweep_with_explicit_specs(self, tmp_path):
        specs = repro.RunSpec(
            experiment="smoke", cell="solo", strategy="static:4", seed=7,
            overrides=(("n_days", 1),),
        )
        result = repro.sweep([specs], cache_dir=tmp_path)
        assert list(result.payloads) == ["smoke/solo#7"]

    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(SweepError):
            repro.sweep([], cache_dir=tmp_path)

    def test_unknown_experiment_propagates(self, tmp_path):
        from repro.errors import UnknownExperimentError

        with pytest.raises(UnknownExperimentError):
            repro.sweep("fig99", cache_dir=tmp_path)


class TestLoadTrace:
    def test_round_trip(self, tmp_path):
        from repro.workload import write_trace_csv

        trace = repro.b2w_like_trace(
            n_days=2, slot_seconds=300.0, seed=3, base_level=1000.0
        )
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        loaded = repro.load_trace(path)
        assert loaded.duration_days == pytest.approx(trace.duration_days)
        # The CSV format rounds values; match its precision, not bits.
        np.testing.assert_allclose(loaded.values, trace.values, rtol=1e-4)


class TestFitPredictor:
    @pytest.fixture(scope="class")
    def series(self):
        trace = repro.b2w_like_trace(
            n_days=9, slot_seconds=300.0, seed=4, base_level=1000.0 * 300.0
        )
        return trace.as_rate_per_second()

    @pytest.mark.parametrize("name", PREDICTORS)
    def test_every_family_fits_and_predicts(self, name, series):
        model = repro.fit_predictor(name, series)
        forecast = model.predict_horizon(series, 6)
        assert len(forecast) == 6
        assert np.all(np.isfinite(forecast))
        assert model.name == name

    def test_zoo_predictors_registered(self):
        # The first five slugs predate the registry; the zoo extends it.
        assert PREDICTORS[:5] == ("spar", "arma", "ar", "naive", "oracle")
        assert {"seasonal", "mssa", "gbt"} <= set(PREDICTORS)

    def test_declared_params_accepted(self, series):
        model = repro.fit_predictor(
            "spar", series, period=288, n_periods=7, m_recent=30
        )
        assert model.is_fitted
        mssa = repro.fit_predictor("mssa", series, period=288, rank=4)
        assert mssa.is_fitted

    def test_unknown_family_raises(self, series):
        with pytest.raises(ConfigurationError) as exc:
            repro.fit_predictor("prophet", series)
        assert "spar" in str(exc.value)  # lists what is registered

    def test_undeclared_param_raises(self, series):
        with pytest.raises(ConfigurationError) as exc:
            repro.fit_predictor("ar", series, n_periods=7)
        assert "does not accept" in str(exc.value)

    def test_oracle_takes_no_params(self, series):
        with pytest.raises(ConfigurationError):
            repro.fit_predictor("oracle", series, period=288)

    def test_predictive_strategy_spec_round_trip(self):
        spec = repro.StrategySpec.parse("predictive:mssa")
        assert spec.kind == "predictive"
        assert spec.needs_predictor
        assert spec.predictor_name == "mssa"
        # Back-compat: bare p-store still means SPAR.
        assert repro.StrategySpec.parse("p-store").predictor_name == "spar"

    def test_predictive_unknown_predictor_rejected(self):
        with pytest.raises(StrategySpecError) as exc:
            repro.StrategySpec.parse("predictive:prophet")
        assert "mssa" in str(exc.value)

    def test_run_with_zoo_predictor(self):
        result = repro.run(strategy="predictive:seasonal", days=2, seed=3)
        assert result.strategy_name == "p-store[seasonal]"
        assert result.slots == 2 * 288
