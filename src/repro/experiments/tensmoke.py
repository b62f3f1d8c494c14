"""Experiment: ``tensmoke`` — a fast elastic-DBMS grid for the tensor
backend.

Not a paper artefact.  The ``smoke`` grid is capacity-sim based, so it
never touches the queueing engine; this grid is its
:class:`~repro.sim.ElasticDbSimulator` counterpart: four cheap
strategies crossed with two workload seeds over one 96x-compressed
B2W-like day (900 simulated seconds per cell, well under a second of
wall time each).  Every cell declares both ``run_cell`` (serial) and
``tensor_cell`` (batched), which makes the grid the canonical workload
for the tensor-vs-serial differential
(``tests/test_tensor.py::TestTensorDifferential``) and the CI tensor
smoke job.

The reactive and simple strategies migrate several times per cell, so
the grid exercises blocks that carry per-tick shares and migration
interference, not just steady ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..elasticity import StrategySpec
from ..sim import ElasticDbSimulator
from ..workload import b2w_like_trace
from .common import by_cell, sim_payload, sim_summary

#: Strategy specs crossed with seeds to form the grid (no p-store: the
#: cells stay predictor-free and sub-second).
TENSMOKE_STRATEGIES = (
    "static:4", "static:6", "reactive:patience=8", "simple:6/3",
)

#: Workload seeds (two distinct traces).
TENSMOKE_SEEDS = (3, 9)

#: One day replayed at 96x: 900 simulated seconds, 15 planner slots.
TENSMOKE_SPEEDUP = 96.0
SLOTS_PER_DAY = 15

#: Requests per 60 s slot at the daily peak; at 96x this puts the
#: compressed load in the txn/s band an 8-machine cluster provisions
#: across.
TENSMOKE_BASE_LEVEL = 800.0

#: Engine seed shared across cells (the workload seed varies instead).
ENGINE_SEED = 55


@dataclass
class TensmokeResult:
    """Per-cell simulation payloads, keyed by cell name."""

    runs: Dict[str, dict]


def _cell_name(strategy_text: str, seed: int) -> str:
    return f"{strategy_text.replace(':', '-').replace('/', '-')}@{seed}"


def grid(
    strategies: Sequence[str] = TENSMOKE_STRATEGIES,
    seeds: Sequence[int] = TENSMOKE_SEEDS,
) -> List:
    """strategies x seeds cells (8 by default)."""
    from ..runner import RunSpec

    return [
        RunSpec(
            experiment="tensmoke",
            cell=_cell_name(text, seed),
            strategy=text,
            seed=seed,
        )
        for text in strategies
        for seed in seeds
    ]


def _prepare(strategy: StrategySpec, seed: int, config):
    """(simulator, offered, strategy) for one cell — shared by the
    serial and tensor cell runners so both are bit-identical."""
    config = config.with_interval(60.0)
    trace = b2w_like_trace(
        n_days=1,
        slot_seconds=60.0,
        seed=seed,
        base_level=TENSMOKE_BASE_LEVEL,
    )
    offered = trace.compressed(TENSMOKE_SPEEDUP).per_second_rates()
    built = strategy.build(config, slots_per_day=SLOTS_PER_DAY)
    initial = (
        int(strategy.param("machines"))
        if strategy.kind == "static"
        else 4
    )
    simulator = ElasticDbSimulator(
        config, max_machines=8, initial_machines=initial, seed=ENGINE_SEED
    )
    return simulator, offered, built


def run_cell(spec, config) -> dict:
    """One hermetic elastic-DBMS run of the tensmoke workload."""
    simulator, offered, built = _prepare(
        StrategySpec.parse(spec.strategy), spec.seed, config
    )
    return sim_payload(simulator.run(offered, built))


def tensor_cell(spec, config):
    """One cell as a :class:`~repro.sim.tensor.TensorProgram`."""
    from ..sim.tensor import TensorProgram

    simulator, offered, built = _prepare(
        StrategySpec.parse(spec.strategy), spec.seed, config
    )
    return TensorProgram(
        simulator=simulator,
        offered_tps=offered,
        strategy=built,
        label=spec.label,
        finalize=sim_payload,
    )


def fold(payloads) -> TensmokeResult:
    return TensmokeResult(runs=by_cell(payloads))


def summarize(result: TensmokeResult) -> str:
    return "\n".join(
        f"{name}: {sim_summary(run)}"
        for name, run in sorted(result.runs.items())
    )
