"""The four batch workloads (the researcher's trips).

Input sizes are fixed; ``--seed`` draws only the per-slot noise of the
load trace.  Traces are generated with ``drift_sigma=0`` and no wobble
(``repro.experiments.serve.drift_trace`` does much the same), so the
number of reconfigurations — hence host time — does not swing with the
seed.  The exception is ``sweep_fig09``: its cells build their own trace
from the figure's grid seed, exactly as ``pstore sweep fig09`` does, and
``--seed`` does not change them.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import TMP_DIR
from .harness import PassResult, Workload

#: One compressed evaluation day of the Fig. 9 benchmark.
DAY_SECONDS = 8640
DAY_INTERVALS = 144


def digest_of(document) -> str:
    from repro.config import canonical_json

    return hashlib.sha256(
        canonical_json(document).encode("utf-8")
    ).hexdigest()[:16]


def steady_trace(seed: int, n_days: int, slot_seconds: float,
                 base_level: float, **overrides):
    """A B2W-like trace whose shape does not depend on the seed: no
    day-level drift, no intraday wobble, 1 % per-slot noise.  (With the
    generator's default 3.5 % noise and a 3 % wobble the number of moves
    on ``sim_elastic`` still ranged from 15 to 21 across ten seeds.)"""
    from repro import workload

    options = dict(drift_sigma=0.0, wobble_sigma=0.0, noise_sigma=0.01)
    options.update(overrides)
    return workload.b2w_like_trace(
        n_days=n_days, slot_seconds=slot_seconds, seed=seed,
        base_level=base_level, **options,
    )


@contextmanager
def engine_seed(seed: int):
    """Run Fig. 9 approaches with an engine seed derived from ``--seed``
    (``fig09.ENGINE_SEED`` is read when the simulator is built)."""
    from repro.experiments import fig09

    previous = fig09.ENGINE_SEED
    fig09.ENGINE_SEED = 1000 + seed
    try:
        yield
    finally:
        fig09.ENGINE_SEED = previous


# ----------------------------------------------------------------------
# sim_static / sim_elastic
# ----------------------------------------------------------------------


@dataclass
class SimState:
    seed: int
    setup: object
    reference_digest: Optional[str] = None


class _Fig09Day(Workload):
    """``fig09.run_approach`` over one compressed evaluation day."""

    #: ``(strategy spec, initial machines)`` per run of a pass.
    approaches: Tuple[Tuple[str, int], ...] = ()

    def prepare(self) -> None:
        import repro.experiments.fig09  # noqa: F401

    def setup(self, seed: int) -> SimState:
        from repro.experiments import common
        from repro.workload import memo

        memo.clear()
        trace = steady_trace(
            seed, common.TRAIN_DAYS + 1, 60.0, common.BENCHMARK_BASE_LEVEL
        )
        state = SimState(seed, common.benchmark_setup(
            eval_days=1, seed=seed, trace=trace
        ))
        state.reference_digest = self.run_pass(state, None).digest
        return state

    def check_run(self, spec: str, result) -> List[str]:
        raise NotImplementedError

    def run_pass(self, state: SimState, tracer) -> PassResult:
        from repro.elasticity import StrategySpec
        from repro.experiments import common, fig09

        specs = [(StrategySpec.parse(text), n) for text, n in self.approaches]
        with engine_seed(state.seed):
            t0 = time.perf_counter()
            results = [
                fig09.run_approach(spec, state.setup, initial_machines=n)
                for spec, n in specs
            ]
            host_s = time.perf_counter() - t0
        problems: List[str] = []
        for (text, _), result in zip(self.approaches, results):
            if result.seconds != DAY_SECONDS:
                problems.append(
                    f"{text}: simulated {result.seconds} s, not {DAY_SECONDS}"
                )
            problems.extend(self.check_run(text, result))
        runs = len(self.approaches)
        payloads = [common.sim_payload(r) for r in results]
        return PassResult(
            host_s=host_s,
            sim_seconds=runs * DAY_SECONDS,
            decisions=runs * DAY_INTERVALS,
            reports=runs * DAY_SECONDS,
            ops_attempted=runs,
            digest=digest_of(payloads),
            problems=problems,
            counters={"sla_violations_p99": float(sum(
                p["sla_violations"]["p99"] for p in payloads
            ))},
        )


class SimStatic(_Fig09Day):
    name = "sim_static"
    why = (
        "static:10 and static:4 over one compressed day (2 x 8640 sim-s): "
        "quiescent stretches only, so engine step_block is the work and "
        "planner, prediction and squall do none - the bypass workload"
    )
    approaches = (("static:10", 10), ("static:4", 4))

    def check_run(self, spec, result):
        if result.moves_started != 0:
            return [f"{spec}: {result.moves_started} moves on a static run"]
        return []

    def check_layers(self, metrics):
        idle = ("core.planner.calls", "core.controller.decides",
                "squall.moves", "squall.advance_calls",
                "prediction.predicts.spar")
        return [
            f"sim_static reached {name} ({metrics[name]:g} per pass)"
            for name in idle if metrics[name] != 0
        ]


class SimElastic(_Fig09Day):
    name = "sim_elastic"
    why = (
        "reactive:patience=10 and p-store (SPAR on 28 days) over the same "
        "day: ~15 moves put ticks on the scalar step path and run decide -> "
        "predict -> best_moves -> migrate every interval"
    )
    approaches = (("reactive:patience=10", 4), ("p-store", 4))

    def check_run(self, spec, result):
        if result.moves_started < 1:
            return [f"{spec}: no reconfiguration started"]
        return []


# ----------------------------------------------------------------------
# capacity_zoo
# ----------------------------------------------------------------------

ZOO_STRATEGIES = (
    "predictive:spar", "predictive:mssa", "predictive:gbt",
    "reactive:patience=12",
)
ZOO_TRAIN_DAYS = 14
ZOO_EVAL_DAYS = 2
ZOO_SLOT_SECONDS = 300.0
ZOO_SLOTS = 576
ZOO_PEAK_TPS = 1450.0


@dataclass
class ZooState:
    config: object
    train: object
    evaluation: object
    initial: int
    reference_digest: Optional[str] = None


class CapacityZoo(Workload):
    name = "capacity_zoo"
    why = (
        "fit + run_capacity_simulation for predictive:spar/mssa/gbt and "
        "reactive, 5-min slots, 14 train + 2 eval days (576 decisions "
        "each): no engine; prediction, planner and capacity_sim are the pass"
    )

    def prepare(self) -> None:
        import repro.api  # noqa: F401
        import repro.sim  # noqa: F401

    def setup(self, seed: int) -> ZooState:
        from repro.config import default_config
        from repro.workload import memo

        memo.clear()
        config = default_config().with_interval(ZOO_SLOT_SECONDS)
        trace = steady_trace(
            seed, ZOO_TRAIN_DAYS + ZOO_EVAL_DAYS, ZOO_SLOT_SECONDS,
            ZOO_PEAK_TPS * ZOO_SLOT_SECONDS,
        )
        evaluation = trace.slice_days(ZOO_TRAIN_DAYS, ZOO_EVAL_DAYS)
        state = ZooState(
            config=config,
            train=trace.slice_days(0, ZOO_TRAIN_DAYS).as_rate_per_second(),
            evaluation=evaluation,
            initial=max(1, math.ceil(
                evaluation.as_rate_per_second()[0] * 1.3 / config.q
            )),
        )
        state.reference_digest = self.run_pass(state, None).digest
        return state

    def run_pass(self, state: ZooState, tracer) -> PassResult:
        from repro.elasticity import StrategySpec
        from repro.experiments.common import capacity_payload
        from repro.prediction import get_predictor_spec
        from repro.sim import run_capacity_simulation

        t0 = time.perf_counter()
        results = []
        for text in ZOO_STRATEGIES:
            spec = StrategySpec.parse(text)
            predictor, history = None, ()
            if spec.needs_predictor:
                predictor = get_predictor_spec(spec.predictor_name).build(
                    period=288
                ).fit(state.train)
                history = state.train
            strategy = spec.build(
                state.config, predictor=predictor, slots_per_day=288
            )
            results.append(run_capacity_simulation(
                state.evaluation, strategy, state.config, state.initial,
                history_seed=history,
            ))
        host_s = time.perf_counter() - t0
        problems = [
            f"{text}: simulated {r.n_slots} slots, not {ZOO_SLOTS}"
            for text, r in zip(ZOO_STRATEGIES, results)
            if r.n_slots != ZOO_SLOTS
        ]
        runs = len(ZOO_STRATEGIES)
        return PassResult(
            host_s=host_s,
            sim_seconds=runs * ZOO_SLOTS * ZOO_SLOT_SECONDS,
            decisions=runs * ZOO_SLOTS,
            reports=runs * ZOO_SLOTS,
            ops_attempted=runs,
            digest=digest_of([capacity_payload(r) for r in results]),
            problems=problems,
            counters={"insufficient_slots": float(sum(
                r.insufficient_slots for r in results
            ))},
        )

    def check_layers(self, metrics):
        return [
            f"capacity_zoo reached {name}"
            for name in ("hstore.engine.block_calls",
                         "hstore.engine.step_calls")
            if metrics[name] != 0
        ]


# ----------------------------------------------------------------------
# sweep_fig09
# ----------------------------------------------------------------------

SWEEP_CELLS = 4


@dataclass
class SweepState:
    grid: list
    reference_digest: Optional[str] = None


class SweepFig09(Workload):
    name = "sweep_fig09"
    why = (
        "run_sweep(fig09.grid(eval_days=1), jobs=1, backend=auto) cold into "
        "a fresh ResultCache, then warm: the researcher's trip through "
        "runner, sim.tensor batching and its evictions (4 x 8640 sim-s)"
    )

    def __init__(self) -> None:
        #: ``result_hash`` of the serial reference, computed once.
        self._reference: Optional[str] = None

    def prepare(self) -> None:
        import repro.experiments.fig09  # noqa: F401
        import repro.runner  # noqa: F401
        import repro.sim.tensor  # noqa: F401

    def setup(self, seed: int) -> SweepState:
        """The grid is the figure's own (its seed, 21, is part of what
        Fig. 9 is; ``--seed`` does not reach into it).  The first set-up
        of a process warms up with the whole grid on the serial backend
        — the reference every timed sweep must reproduce — and later
        ones with its first cell only: three serial sweeps would cost
        more than the timed phase."""
        from repro import runner
        from repro.experiments import fig09
        from repro.workload import memo

        memo.clear()
        state = SweepState(grid=fig09.grid(eval_days=1))
        if self._reference is None:
            self._reference = runner.run_sweep(
                state.grid, cache=None, jobs=1, backend="serial"
            ).result_hash
        else:
            runner.run_sweep(
                state.grid[:1], cache=None, jobs=1, backend="serial"
            )
        state.reference_digest = self._reference
        return state

    def run_pass(self, state: SweepState, tracer) -> PassResult:
        from repro import runner
        from repro.workload import memo

        cache_dir = TMP_DIR / "sweep-cache"
        shutil.rmtree(cache_dir, ignore_errors=True)
        memo.clear()
        try:
            t0 = time.perf_counter()
            cold = runner.run_sweep(
                state.grid, cache=runner.ResultCache(cache_dir), jobs=1,
                backend="auto",
            )
            warm = runner.run_sweep(
                state.grid, cache=runner.ResultCache(cache_dir), jobs=1,
                backend="auto",
            )
            host_s = time.perf_counter() - t0
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        problems = []
        if cold.executed != SWEEP_CELLS or cold.hits != 0:
            problems.append(
                f"cold sweep executed {cold.executed} cells with "
                f"{cold.hits} hits, expected {SWEEP_CELLS} and 0"
            )
        if warm.hits != SWEEP_CELLS:
            problems.append(
                f"warm sweep hit {warm.hits} of {SWEEP_CELLS} cells"
            )
        if warm.result_hash != cold.result_hash:
            problems.append("warm sweep result_hash differs from the cold one")
        for cell in cold.cells:
            if cell.payload.get("seconds") != DAY_SECONDS:
                problems.append(
                    f"{cell.label}: simulated {cell.payload.get('seconds')} s"
                )
        return PassResult(
            host_s=host_s,
            sim_seconds=SWEEP_CELLS * DAY_SECONDS,
            decisions=SWEEP_CELLS * DAY_INTERVALS,
            reports=SWEEP_CELLS * DAY_SECONDS,
            ops_attempted=2 * SWEEP_CELLS,
            digest=cold.result_hash,
            problems=problems,
            counters={"sla_violations_p99": float(sum(
                cell.payload["sla_violations"]["p99"] for cell in cold.cells
            ))},
        )
