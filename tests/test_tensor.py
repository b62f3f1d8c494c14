"""Differential tests: the cross-cell tensor batch engine must be
bit-identical to the serial simulator — per cell, per series, and for
the sweep-level ``result_hash`` — with every tick of every cell batched:
migrations, fault windows and planner boundaries ride the fused blocks
as per-tick rows, so no cell is ever evicted.
"""

import numpy as np
import pytest

from repro.config import canonical_json, default_config
from repro.elasticity import StaticStrategy
from repro.elasticity.manual import ManualStrategy
from repro.experiments import tensmoke
from repro.faults import FaultInjector, FaultSpec
from repro.runner import ResultCache, SweepExecutor, run_sweep
from repro.runner.spec import jsonify
from repro.sim import ElasticDbSimulator
from repro.sim.tensor import (
    TensorBatchEngine,
    TensorProgram,
    run_programs,
)
from repro.workload import memo

from .engine_oracle import run_scalar

CFG = default_config()


def _sinusoid(n, base=500.0, amp=300.0, seed=0):
    rng = np.random.default_rng(seed)
    x = np.linspace(0, 6 * np.pi, n)
    return np.clip(base + amp * np.sin(x) + rng.normal(0, 20, n), 0, None)


def _assert_identical(got, want):
    """Every per-second series must match bit for bit."""
    assert np.array_equal(got.machines, want.machines)
    assert np.array_equal(got.completed_tps, want.completed_tps)
    assert np.array_equal(got.migrating, want.migrating)
    for q in (50.0, 95.0, 99.0):
        assert np.array_equal(got.latency.series(q), want.latency.series(q))
    assert got.moves_started == want.moves_started
    assert got.emergencies == want.emergencies


class TestTensorDifferential:
    def test_tensmoke_grid_matches_serial(self):
        """All strategies x seeds: batched payloads == serial payloads."""
        specs = tensmoke.grid()
        serial = {
            s.label: canonical_json(jsonify(tensmoke.run_cell(s, CFG)))
            for s in specs
        }
        programs = [tensmoke.tensor_cell(s, CFG) for s in specs]
        report = TensorBatchEngine(programs).run()
        assert report.rounds > 0
        # Migrations and planner boundaries stay in the batch.
        assert report.batched_ticks == 900 * len(specs)
        assert report.scalar_ticks == 0
        assert report.evictions == 0
        # The canonical JSON is the material ``result_hash`` pins; a dict
        # ``==`` would let -0.0 pass for 0.0.
        for program, cell in zip(programs, report.outcomes):
            assert cell.error is None, cell.error
            got = canonical_json(jsonify(program.finalize(cell.result)))
            assert got == serial[program.label], program.label

    def test_single_program(self):
        offered = _sinusoid(600)
        sim = lambda: ElasticDbSimulator(
            CFG, max_machines=8, initial_machines=3, seed=11
        )
        want = sim().run(offered, StaticStrategy(3))
        report = run_programs(
            [TensorProgram(sim(), offered, StaticStrategy(3), label="solo")]
        )
        (cell,) = report.outcomes
        assert cell.error is None, cell.error
        _assert_identical(cell.result, want)

    def test_mixed_signatures_and_zero_load(self):
        """Cells with different engine shapes are grouped separately but
        still finish correctly; a zero-load stretch leaves the fused
        group for its own engine's sampling of the completed rows."""
        offered_a = _sinusoid(700)
        offered_b = np.concatenate([np.zeros(150), _sinusoid(400, seed=3)])
        make_a = lambda: ElasticDbSimulator(
            CFG, max_machines=8, initial_machines=3, seed=11
        )
        make_b = lambda: ElasticDbSimulator(
            CFG, max_machines=6, initial_machines=2, seed=7
        )
        strat_a = lambda: ManualStrategy([(2, 5), (8, 3)])
        strat_b = lambda: StaticStrategy(2)
        want_a = make_a().run(offered_a, strat_a())
        want_b = make_b().run(offered_b, strat_b())
        programs = [
            TensorProgram(make_a(), offered_a, strat_a(), label="a"),
            TensorProgram(make_b(), offered_b, strat_b(), label="b"),
        ]
        assert programs[0].signature() != programs[1].signature()
        report = TensorBatchEngine(programs).run()
        for cell in report.outcomes:
            assert cell.error is None, cell.error
        _assert_identical(report.outcomes[0].result, want_a)
        _assert_identical(report.outcomes[1].result, want_b)

    def test_failed_cell_does_not_disturb_others(self):
        offered = _sinusoid(400)
        make = lambda seed: ElasticDbSimulator(
            CFG, max_machines=8, initial_machines=3, seed=seed
        )
        want = make(11).run(offered, StaticStrategy(3))
        boom = TensorProgram(
            make(5), np.full(300, -1.0), StaticStrategy(3), label="boom"
        )
        good = TensorProgram(make(11), offered, StaticStrategy(3), label="ok")
        report = TensorBatchEngine([boom, good]).run()
        assert report.outcomes[0].error is not None
        assert report.outcomes[1].error is None
        _assert_identical(report.outcomes[1].result, want)

    def test_empty_batch_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            TensorBatchEngine([])


class TestTensorChaos:
    def test_chaos_cell_crash_mid_move_bit_identical(self):
        """A node crash in the middle of a scale-out (the move is
        aborted) plus a slowdown window ride the batch as per-tick rows;
        the result must match a pure serial run with the same injector
        timeline, and the scalar per-second loop."""
        offered = _sinusoid(1200)
        specs = [
            FaultSpec(kind="node_crash", at_time=250.0),
            FaultSpec(
                kind="node_slowdown",
                at_time=700.0,
                duration_seconds=90.0,
                node=1,
                capacity_multiplier=0.5,
            ),
        ]
        make = lambda: ElasticDbSimulator(
            CFG,
            max_machines=8,
            initial_machines=3,
            seed=11,
            injector=FaultInjector(specs, seed=5),
        )
        strategy = lambda: ManualStrategy([(2, 5), (12, 3)])
        want = make().run(offered, strategy())
        # The 3 -> 5 move starts at t=179 and would run to t=333.
        assert want.migrating[249] and not want.migrating[250]
        _assert_identical(want, run_scalar(make(), offered, strategy()))
        calm = ElasticDbSimulator(
            CFG, max_machines=8, initial_machines=3, seed=23
        )
        report = TensorBatchEngine(
            [
                TensorProgram(make(), offered, strategy(), label="chaos"),
                TensorProgram(calm, offered, StaticStrategy(3), label="calm"),
            ]
        ).run()
        chaos = report.outcomes[0]
        assert chaos.error is None, chaos.error
        assert chaos.evictions == 0
        assert chaos.scalar_ticks == 0
        assert chaos.batched_ticks == offered.size
        _assert_identical(chaos.result, want)


class TestSweepBackends:
    def test_tensor_backend_result_hash_matches_serial(self, tmp_path):
        specs = tensmoke.grid()
        serial = SweepExecutor(
            CFG, ResultCache(tmp_path / "a"), jobs=1, backend="serial"
        ).run(specs)
        tensor = SweepExecutor(
            CFG, ResultCache(tmp_path / "b"), jobs=1, backend="tensor"
        ).run(specs)
        assert tensor.result_hash == serial.result_hash
        assert tensor.backend == "tensor"
        assert tensor.tensor["tensorized"] == len(specs)
        assert tensor.tensor["evictions"] == 0
        assert "backend=tensor" in tensor.summary()
        assert f"tensor {len(specs)} cells" in tensor.summary()

    def test_tensor_backend_falls_back_for_non_tensor_cells(self, tmp_path):
        from repro.experiments.registry import get_experiment

        specs = get_experiment("smoke").make_grid()
        serial = SweepExecutor(
            CFG, ResultCache(tmp_path / "a"), jobs=1, backend="serial"
        ).run(specs)
        tensor = SweepExecutor(
            CFG, ResultCache(tmp_path / "b"), jobs=1, backend="tensor"
        ).run(specs)
        assert tensor.result_hash == serial.result_hash
        assert tensor.tensor.get("tensorized", 0) == 0
        assert tensor.tensor["fallback"] == len(specs)

    def test_auto_backend_resolution(self):
        tensorizable = run_sweep(
            tensmoke.grid(seeds=(3,)), cache=None, backend="auto"
        )
        assert tensorizable.backend == "tensor"
        from repro.experiments.registry import get_experiment

        mixed = run_sweep(
            get_experiment("smoke").make_grid(), cache=None, backend="auto"
        )
        assert mixed.backend == "serial"
        # An explicit worker-pool request wins over tensor batching:
        # heavyweight tensorizable grids must still parallelize.
        pooled = run_sweep(
            tensmoke.grid(seeds=(3,)), cache=None, jobs=2, backend="auto"
        )
        assert pooled.backend == "process"

    def test_invalid_backend_rejected(self):
        from repro.errors import SweepError

        with pytest.raises(SweepError):
            SweepExecutor(CFG, None, backend="bogus")

    def test_cache_counters_in_manifest_and_summary(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = tensmoke.grid(seeds=(3,))
        cold = SweepExecutor(CFG, cache, jobs=1).run(specs)
        assert cold.cache_stats["misses"] == len(specs)
        assert cold.cache_stats["stores"] == len(specs)
        assert cold.cache_stats["hits"] == 0
        warm = SweepExecutor(CFG, cache, jobs=1).run(specs)
        assert warm.cache_stats["hits"] == len(specs)
        assert warm.cache_stats["misses"] == 0
        assert f"cache {len(specs)}h/0m/0x" in warm.summary()
        manifest = warm.manifest()
        assert manifest["cache"]["hits"] == len(specs)
        assert manifest["backend"] == "serial"

    def test_trace_memo_reuse_counted(self):
        memo.clear()
        report = run_sweep(tensmoke.grid(), cache=None, backend="serial")
        # 8 cells over 2 workload seeds: 2 parses, 6 memo hits.
        assert report.trace_reuse["hits"] == 6
        assert report.manifest()["trace_reuse"]["hits"] == 6
        assert "trace reuse 6" in report.summary()
