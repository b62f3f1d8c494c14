"""Experiment: ``smoke`` — a fast capacity-sim grid for sweep testing.

Not a paper artefact.  This grid exists so ``pstore sweep`` has a
many-celled, seconds-fast workload for CI smoke jobs and for the
parallel-vs-serial bit-identity tests: four cheap strategies crossed
with two workload seeds over a 2-day trace at 5-minute slots (8 cells,
each well under a second).

Cells honour an ``explode`` override (fail on purpose) so the
resume-after-failure path of the executor can be exercised end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..elasticity import StrategySpec
from ..sim import run_capacity_simulation
from ..workload import b2w_like_trace
from .common import by_cell, capacity_payload, capacity_summary

#: Strategy specs crossed with seeds to form the grid.
SMOKE_STRATEGIES = ("static:4", "static:6", "reactive", "simple:6/3")

#: Workload seeds (two distinct traces).
SMOKE_SEEDS = (7, 11)

#: Trace shape: 2 days at 5-minute slots = 576 planner slots per cell.
SMOKE_DAYS = 2
SMOKE_SLOT_SECONDS = 300.0
SLOTS_PER_DAY = 288


@dataclass
class SmokeResult:
    """Per-cell capacity-sim payloads, keyed by cell name."""

    runs: Dict[str, dict]


def _cell_name(strategy_text: str, seed: int) -> str:
    return f"{strategy_text.replace(':', '-').replace('/', '-')}@{seed}"


def grid(
    strategies: Sequence[str] = SMOKE_STRATEGIES,
    seeds: Sequence[int] = SMOKE_SEEDS,
    n_days: int = SMOKE_DAYS,
) -> List:
    """strategies x seeds cells (8 by default)."""
    from ..runner import RunSpec

    return [
        RunSpec(
            experiment="smoke",
            cell=_cell_name(text, seed),
            strategy=text,
            seed=seed,
            overrides=(("n_days", int(n_days)),),
        )
        for text in strategies
        for seed in seeds
    ]


def run_cell(spec, config) -> dict:
    """One hermetic capacity-sim run of the smoke workload."""
    if spec.option("explode"):
        raise RuntimeError(f"cell {spec.label} exploded on request")
    strategy = StrategySpec.parse(spec.strategy)
    config = config.with_interval(SMOKE_SLOT_SECONDS)
    trace = b2w_like_trace(
        n_days=int(spec.option("n_days", SMOKE_DAYS)),
        slot_seconds=SMOKE_SLOT_SECONDS,
        seed=spec.seed,
        base_level=1250.0 * SMOKE_SLOT_SECONDS,
    )
    built = strategy.build(config, slots_per_day=SLOTS_PER_DAY)
    initial = (
        int(strategy.param("machines"))
        if strategy.kind == "static"
        else 4
    )
    return capacity_payload(
        run_capacity_simulation(trace, built, config, initial_machines=initial)
    )


def fold(payloads) -> SmokeResult:
    return SmokeResult(runs=by_cell(payloads))


def summarize(result: SmokeResult) -> str:
    return "\n".join(
        f"{name}: {capacity_summary(run)}"
        for name, run in sorted(result.runs.items())
    )
