"""Small builders only the tests use: a step trace, a mixed-fault
scenario, a plan-balance measure and in-memory CSV round trips."""

from __future__ import annotations

import io
from typing import Sequence

import numpy as np

from repro.errors import SimulationError
from repro.faults.spec import (
    FORECAST_DRIFT,
    MIGRATION_STALL,
    NODE_CRASH,
    NODE_SLOWDOWN,
    FaultScenario,
    FaultSpec,
)
from repro.hstore.cluster import PartitionPlan
from repro.workload.io import read_trace_csv, write_trace_csv
from repro.workload.trace import LoadTrace


def step_trace(
    levels,
    slots_per_level: int,
    slot_seconds: float = 60.0,
    name: str = "steps",
) -> LoadTrace:
    """Piecewise-constant load, handy for planner unit tests."""
    if slots_per_level < 1:
        raise SimulationError("slots_per_level must be >= 1")
    values = np.repeat(np.asarray(levels, dtype=float), slots_per_level)
    return LoadTrace(values, slot_seconds, name=name)


def mixed_chaos_scenario(
    crash_time: float,
    slow_node: int = 0,
    seed: int = 7,
    drift_magnitude: float = 0.6,
) -> FaultScenario:
    """One fault of every windowed class plus a crash, spread over a day
    of compressed benchmark time."""
    faults: Sequence[FaultSpec] = (
        FaultSpec(kind=FORECAST_DRIFT, at_time=crash_time * 0.25,
                  duration_seconds=crash_time * 0.5,
                  magnitude=drift_magnitude, label="model-drift"),
        FaultSpec(kind=NODE_SLOWDOWN, at_time=crash_time * 0.5, node=slow_node,
                  duration_seconds=crash_time * 0.25,
                  capacity_multiplier=0.5, label="straggler"),
        FaultSpec(kind=NODE_CRASH, at_time=crash_time, label="crash"),
        FaultSpec(kind=MIGRATION_STALL, on_migration=2,
                  duration_seconds=120.0, label="wedged-transfer"),
    )
    return FaultScenario(faults=tuple(faults), seed=seed, name="mixed-chaos")


def plan_balance_error(plan: PartitionPlan, partitions: Sequence[int]) -> int:
    """Max deviation (in buckets) from a perfectly even assignment."""
    counts = plan.counts()
    n_buckets = plan.n_buckets
    per = n_buckets / len(partitions)
    worst = 0
    for pid in partitions:
        worst = max(worst, abs(counts.get(pid, 0) - per))
    return int(np.ceil(worst - 0.5))


def trace_to_csv_string(trace: LoadTrace) -> str:
    """Serialise to an in-memory CSV string."""
    buffer = io.StringIO()
    write_trace_csv(trace, buffer)
    return buffer.getvalue()


def trace_from_csv_string(text: str) -> LoadTrace:
    """Deserialise from an in-memory CSV string."""
    return read_trace_csv(io.StringIO(text))
