"""Tests for the sweep executor, result cache, and RunSpec hashing."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import default_config
from repro.elasticity.base import StrategySpec
from repro.errors import ConfigurationError, StrategySpecError, SweepError
from repro.experiments.registry import (
    ExperimentDef,
    get_experiment,
    list_experiments,
)
from repro.runner import (
    ResultCache,
    RunSpec,
    SweepExecutor,
    executor,
    jsonify,
    run_sweep,
)
from repro.runner import spec as spec_module
from repro.telemetry import get_telemetry, telemetry_scope

SRC = str(Path(__file__).resolve().parents[1] / "src")


def smoke_specs(n_days=1):
    return get_experiment("smoke").make_grid(
        strategies=("static:4", "static:6"), seeds=(7, 11), n_days=n_days
    )


class TestRunSpec:
    def test_label(self):
        spec = RunSpec(experiment="fig09", cell="p-store", seed=21)
        assert spec.label == "fig09/p-store#21"

    def test_overrides_sorted_and_canonical(self):
        a = RunSpec(
            experiment="x", cell="c",
            overrides=(("b", 2), ("a", 1)),
        )
        b = RunSpec(
            experiment="x", cell="c",
            overrides=(("a", 1), ("b", 2)),
        )
        assert a == b
        assert a.canonical() == b.canonical()

    def test_round_trip(self):
        spec = RunSpec(
            experiment="fig09", cell="reactive",
            strategy="reactive:patience=10", seed=3,
            overrides=(("eval_days", 2),),
        )
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_bad_strategy_rejected_eagerly(self):
        with pytest.raises(StrategySpecError):
            RunSpec(experiment="x", cell="c", strategy="quantum")

    def test_unjsonable_override_rejected(self):
        with pytest.raises(ConfigurationError):
            RunSpec(experiment="x", cell="c", overrides=(("f", object()),))

    def test_jsonify_numpy(self):
        import numpy as np

        assert jsonify(np.int64(3)) == 3
        assert jsonify(np.float64(0.5)) == 0.5
        assert jsonify(np.array([1, 2])) == [1, 2]


class TestCacheKey:
    def test_same_spec_same_key(self):
        config_hash = default_config().config_hash()
        a = RunSpec(experiment="x", cell="c", seed=1).cache_key(config_hash)
        b = RunSpec(experiment="x", cell="c", seed=1).cache_key(config_hash)
        assert a == b

    def test_key_varies_with_spec_and_config(self):
        h = default_config().config_hash()
        base = RunSpec(experiment="x", cell="c", seed=1)
        assert base.cache_key(h) != RunSpec(
            experiment="x", cell="c", seed=2
        ).cache_key(h)
        assert base.cache_key(h) != base.cache_key("other-config")

    def test_key_stable_across_processes(self):
        """The content-addressed key must not depend on process state
        (hash randomisation, dict order)."""
        code = (
            "import sys; sys.path.insert(0, %r); "
            "from repro.runner import RunSpec; "
            "from repro.config import default_config; "
            "spec = RunSpec(experiment='fig09', cell='p-store', "
            "strategy='p-store', seed=21, overrides=(('eval_days', 3),)); "
            "print(spec.cache_key(default_config().config_hash()))"
            % SRC
        )
        keys = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
            for _ in range(2)
        }
        assert len(keys) == 1
        here = RunSpec(
            experiment="fig09", cell="p-store", strategy="p-store", seed=21,
            overrides=(("eval_days", 3),),
        ).cache_key(default_config().config_hash())
        assert keys == {here}


    def test_a_new_code_fingerprint_misses_every_cell(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        specs = smoke_specs()
        SweepExecutor(default_config(), cache, jobs=1).run(specs)
        warm = SweepExecutor(default_config(), cache, jobs=1).run(specs)
        assert warm.hits == len(specs)
        monkeypatch.setattr(spec_module, "code_fingerprint", lambda: "0" * 64)
        report = SweepExecutor(default_config(), cache, jobs=1).run(specs)
        assert report.hits == 0
        assert report.executed == len(specs)

    def test_one_byte_of_the_package_misses_every_cell(self, tmp_path):
        """A sweep run from a copy of the package, with a warm cache,
        after one byte of one module's docstring changed."""
        src = tmp_path / "src"
        shutil.copytree(
            Path(SRC) / "repro", src / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        code = (
            "import sys; sys.path.insert(0, %r); "
            "from repro.experiments.registry import get_experiment; "
            "from repro.runner import ResultCache, run_sweep; "
            "specs = get_experiment('smoke').make_grid("
            "strategies=('static:4', 'static:6'), seeds=(7,), n_days=1); "
            "report = run_sweep(specs, cache=ResultCache(%r), jobs=1); "
            "print(report.hits, report.executed)"
            % (str(src), str(tmp_path / "cache"))
        )

        def sweep():
            return subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, check=True,
            ).stdout.split()

        assert sweep() == ["0", "2"]
        assert sweep() == ["2", "0"]
        module = src / "repro" / "errors.py"
        data = bytearray(module.read_bytes())
        at = data.index(b"Exception")
        data[at] = ord("e")
        module.write_bytes(bytes(data))
        assert sweep() == ["0", "2"]


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load("ab" * 32) is None
        envelope = {
            "schema": "pstore.sweep-cell/v1",
            "key": "ab" * 32,
            "payload": {"x": 1},
        }
        cache.store("ab" * 32, envelope)
        assert cache.load("ab" * 32)["payload"] == {"x": 1}
        assert ("ab" * 32) in cache
        assert len(cache) == 1

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" * 32
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.load(key) is None

    def test_wrong_key_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" * 32
        cache.store(
            key,
            {"schema": "pstore.sweep-cell/v1", "key": "other", "payload": {}},
        )
        assert cache.load(key) is None


class TestSweepExecutor:
    def test_serial_executes_and_caches(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = smoke_specs()
        report = SweepExecutor(default_config(), cache, jobs=1).run(specs)
        assert report.executed == len(specs)
        assert report.hits == 0
        rerun = SweepExecutor(default_config(), cache, jobs=1).run(specs)
        assert rerun.hits == len(specs)
        assert rerun.executed == 0
        assert rerun.result_hash == report.result_hash

    def test_parallel_bit_identical_to_serial(self, tmp_path):
        specs = smoke_specs()
        serial = SweepExecutor(
            default_config(), ResultCache(tmp_path / "a"), jobs=1
        ).run(specs)
        parallel = SweepExecutor(
            default_config(), ResultCache(tmp_path / "b"), jobs=2
        ).run(specs)
        assert parallel.result_hash == serial.result_hash
        by_label_serial = {c.spec.label: c.payload for c in serial.cells}
        by_label_parallel = {c.spec.label: c.payload for c in parallel.cells}
        assert by_label_serial == by_label_parallel

    def test_chaos_cells_parallel_bit_identical(self, tmp_path):
        specs = get_experiment("chaos").make_grid(eval_days=1)
        serial = SweepExecutor(
            default_config(), ResultCache(tmp_path / "a"), jobs=1
        ).run(specs)
        parallel = SweepExecutor(
            default_config(), ResultCache(tmp_path / "b"), jobs=2
        ).run(specs)
        assert parallel.result_hash == serial.result_hash
        payload = {c.spec.cell: c.payload for c in serial.cells}
        assert payload["p-store"]["recovery"]["injected"] >= 1
        assert "recovery" not in payload["baseline"]

    def test_failed_cell_raises_but_persists_completed(self, tmp_path):
        cache = ResultCache(tmp_path)
        good = smoke_specs()
        bad = RunSpec(
            experiment="smoke", cell="boom", strategy="static:4", seed=7,
            overrides=(("explode", True),),
        )
        with pytest.raises(SweepError) as excinfo:
            SweepExecutor(default_config(), cache, jobs=1).run(good + [bad])
        assert "boom" in str(excinfo.value)
        # The good cells were persisted before the failure surfaced:
        # a resume run serves them from cache.
        resumed = SweepExecutor(default_config(), cache, jobs=1).run(good)
        assert resumed.hits == len(good)

    def test_force_re_executes(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = smoke_specs()
        SweepExecutor(default_config(), cache, jobs=1).run(specs)
        forced = SweepExecutor(default_config(), cache, jobs=1).run(
            specs, force=True
        )
        assert forced.hits == 0
        assert forced.executed == len(specs)

    def test_config_change_invalidates_cache(self, tmp_path):
        import dataclasses

        cache = ResultCache(tmp_path)
        specs = smoke_specs()
        SweepExecutor(default_config(), cache, jobs=1).run(specs)
        bumped = dataclasses.replace(default_config(), q=300.0)
        report = SweepExecutor(bumped, cache, jobs=1).run(specs)
        assert report.hits == 0

    def test_manifest_and_events(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = smoke_specs()
        report = SweepExecutor(
            default_config(), cache, jobs=1, record_events=True
        ).run(specs)
        paths = report.write_manifest(tmp_path / "out")
        manifest = json.loads(Path(paths["manifest"]).read_text())
        assert manifest["schema"] == "pstore.sweep/v1"
        assert manifest["n_cells"] == len(specs)
        assert manifest["result_hash"] == report.result_hash
        assert sorted(paths) == ["chronicle", "manifest", "spans"]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "chronicle.jsonl", "manifest.json", "spans.jsonl",
        ]
        lines = Path(paths["spans"]).read_text().splitlines()
        assert json.loads(lines[0]) == {
            "schema": "pstore.spans/v1", "merged": True,
        }
        # Each cell's spans ride along, tagged with the cell they ran in.
        spans = [json.loads(line) for line in lines[1:]]
        assert {s["cell"] for s in spans} == {c.label for c in report.cells}
        for cell in report.cells:
            assert [
                {k: v for k, v in s.items() if k != "cell"}
                for s in spans if s["cell"] == cell.label
            ] == list(cell.spans)
            assert [s for s in cell.spans if s["name"] == "interval"]

    def test_duplicate_keys_executed_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = smoke_specs()
        report = SweepExecutor(default_config(), cache, jobs=1).run(
            specs + specs
        )
        assert len(report.cells) == 2 * len(specs)
        assert report.executed == len(specs)
        assert report.hits == len(specs)

    def test_distinct_cells_under_one_label_are_refused(self, tmp_path):
        """Labels leave the overrides out, so these two grids' cells
        pair up under one label each; the report keys payloads by label
        and would keep one of each pair."""
        smoke = get_experiment("smoke")
        specs = smoke.make_grid(n_days=1) + smoke.make_grid(n_days=2)
        with pytest.raises(SweepError) as excinfo:
            SweepExecutor(
                default_config(), ResultCache(tmp_path), jobs=1
            ).run(specs)
        message = str(excinfo.value)
        assert specs[0].label in message
        assert '["n_days",1]' in message and '["n_days",2]' in message
        assert not list(tmp_path.iterdir())      # refused before any cell ran


class TestSeriesDigest:
    """``series_digest`` converts a series in one array call; its JSON
    text, and so every cached payload, is the per-element ``float(v)``
    text's."""

    @pytest.mark.parametrize("values", [
        [0.1, 2.5, 1e300, -3.25],
        [1, 2, 3, -7],
        [True, False, True],
        [float("nan"), float("inf"), float("-inf"), -0.0, 0.0],
        [[1.5, 2.0], [3.0, -0.0]],
        [],
    ])
    def test_digest_text_is_the_per_element_floats(self, values):
        import hashlib

        import numpy as np

        from repro.config import canonical_json
        from repro.experiments.common import series_digest

        per_element = [float(v) for v in np.asarray(values).ravel()]
        blob = canonical_json(per_element).encode("utf-8")
        assert series_digest(values) == hashlib.sha256(blob).hexdigest()[:16]
        assert series_digest(np.asarray(values)) == series_digest(values)


class TestCellTelemetry:
    """A cell runs under ``NULL_TELEMETRY`` unless the sweep records
    events, then under a fresh live bundle, on the inline path and on
    the tensor builder path; the caller's bundle stays installed and
    collects nothing from the cells."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """``get_telemetry().enabled`` as each cell (or tensor program
        builder) saw it when called."""
        seen = []

        def spy(run):
            def wrapped(spec, config):
                seen.append(get_telemetry().enabled)
                return run(spec, config)
            return wrapped

        resolve = executor._resolve_cell_runner
        monkeypatch.setattr(
            executor, "_resolve_cell_runner", lambda name: spy(resolve(name))
        )
        tensor_cell_builder = ExperimentDef.tensor_cell_builder

        def builder(experiment):
            build = tensor_cell_builder(experiment)
            return None if build is None else spy(build)

        monkeypatch.setattr(ExperimentDef, "tensor_cell_builder", builder)
        return seen

    @pytest.mark.parametrize("record_events", [False, True])
    @pytest.mark.parametrize("backend", ["serial", "tensor"])
    def test_cell_sees_null_unless_recording(
        self, seen, backend, record_events
    ):
        # A predictive cell: its forecasts meter into whatever bundle is
        # installed while the tensor batch runs, not only at build time.
        specs = [
            spec for spec in get_experiment("fig09").make_grid(eval_days=1)
            if spec.cell in ("static-4", "p-store")
        ]
        with telemetry_scope() as caller:
            report = run_sweep(
                specs, backend=backend, record_events=record_events
            )
            assert get_telemetry() is caller
        assert report.backend == backend
        assert seen == [record_events] * len(specs)
        assert all(bool(c.chronicle or c.spans) == record_events
                   for c in report.cells)
        assert caller.chronicle.snapshot() == []
        assert caller.tracer.snapshot() == []
        assert {m["name"] for m in caller.metrics.snapshot()} == {
            "sweep.cells", "sweep.hits",
        }


class TestRegistry:
    def test_every_experiment_registered(self):
        names = {defn.name for defn in list_experiments()}
        for expected in ("fig01", "fig09", "fig12", "chaos", "smoke",
                         "tab02", "ablations", "sec5"):
            assert expected in names

    def test_grids_are_runspecs(self):
        for defn in list_experiments():
            grid = defn.make_grid()
            assert grid, defn.name
            for spec in grid:
                assert isinstance(spec, RunSpec)

    def test_derived_experiments_reuse_fig09_cells(self):
        fig09 = {s.cache_key("h") for s in get_experiment("fig09").make_grid()}
        tab02 = {s.cache_key("h") for s in get_experiment("tab02").make_grid()}
        fig10 = {s.cache_key("h") for s in get_experiment("fig10").make_grid()}
        assert tab02 == fig09
        assert fig10 == fig09

    def test_unknown_experiment_raises(self):
        from repro.errors import UnknownExperimentError

        with pytest.raises(UnknownExperimentError):
            get_experiment("fig99")


class TestStrategySpecGrammar:
    def test_parse_and_canonical(self):
        spec = StrategySpec.parse("reactive:patience=10")
        assert spec.kind == "reactive"
        assert spec.param("patience") == 10
        assert spec.canonical() == "reactive:patience=10"

    def test_positional_static_and_simple(self):
        assert StrategySpec.parse("static:6").param("machines") == 6
        simple = StrategySpec.parse("simple:7/3")
        assert simple.param("day") == 7
        assert simple.param("night") == 3

    def test_round_trip_dict(self):
        spec = StrategySpec.parse("static:6")
        assert StrategySpec.from_dict(spec.to_dict()) == spec

    def test_bad_specs_raise_single_typed_error(self):
        for bad in ("quantum", "static:abc", "simple:6", "reactive:magic=1",
                    "", "static:",
                    # parameters that are constants of their strategy
                    "reactive:headroom=2", "reactive:threshold=0.8",
                    "reactive:rate=2", "reactive:min_machines=2",
                    "reactive:max_machines=8", "simple:7/3,morning_hour=6",
                    "simple:7/3,slots_per_day=24", "p-store:horizon=6",
                    "predictive:mssa,horizon=6"):
            with pytest.raises(StrategySpecError):
                StrategySpec.parse(bad)

    def test_build_static(self):
        from repro.elasticity import StaticStrategy

        built = StrategySpec.parse("static:6").build(default_config())
        assert isinstance(built, StaticStrategy)
        assert built.name == "static-6"

    def test_pstore_requires_predictor(self):
        with pytest.raises(StrategySpecError):
            StrategySpec.parse("p-store").build(default_config())
