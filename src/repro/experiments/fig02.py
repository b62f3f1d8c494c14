"""Experiment: Figure 2 — ideal capacity vs integral server allocation.

Figure 2 is the problem statement in miniature: for a sinusoidal demand
curve, the *ideal* capacity tracks demand with a small buffer (2a), but
real allocations are an integral number of servers, so the achievable
capacity is a step function (2b).  We quantify the gap: the step
function's cost overhead relative to the ideal fractional allocation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.report import claim
from ..config import PStoreConfig, default_config
from ..workload import sine_trace


@dataclass
class Figure2Result:
    """Ideal vs step allocation series and their cost gap."""

    demand_tps: np.ndarray
    ideal_capacity: np.ndarray        # demand * (1 + buffer)
    ideal_servers: np.ndarray         # fractional servers for ideal capacity
    allocated_servers: np.ndarray     # the step function (2b)
    step_cost: float                  # sum of allocated servers
    ideal_cost: float                 # sum of fractional servers
    overhead_pct: float               # step vs ideal cost


#: Ideal capacity is demand plus this buffer.
BUFFER_FRACTION = 0.10
#: Slots in the one sinusoidal day (5-minute slots).
SLOTS = 288


def run_figure2(config: PStoreConfig | None = None) -> Figure2Result:
    """Compute the ideal and step allocations for one sinusoidal day."""
    config = config or default_config()
    slot_seconds = 86_400.0 / SLOTS
    trace = sine_trace(
        n_days=1,
        slot_seconds=slot_seconds,
        low=0.5 * config.q * slot_seconds,
        high=7.5 * config.q * slot_seconds,
    )
    demand = trace.as_rate_per_second()
    ideal_capacity = demand * (1.0 + BUFFER_FRACTION)
    ideal_servers = ideal_capacity / config.q
    allocated = np.ceil(ideal_servers - 1e-9).clip(1)
    ideal_cost = float(ideal_servers.sum())
    step_cost = float(allocated.sum())
    return Figure2Result(
        demand_tps=demand,
        ideal_capacity=ideal_capacity,
        ideal_servers=ideal_servers,
        allocated_servers=allocated,
        step_cost=step_cost,
        ideal_cost=ideal_cost,
        overhead_pct=100.0 * (step_cost - ideal_cost) / ideal_cost,
    )


# ----------------------------------------------------------------------
# Sweep-cell protocol
# ----------------------------------------------------------------------


def grid() -> list:
    from ..runner import RunSpec

    return [RunSpec(experiment="fig02", cell="step-overhead")]


def run_cell(spec, config) -> dict:
    result = run_figure2(config=config)
    return {
        "ideal_cost": result.ideal_cost,
        "step_cost": result.step_cost,
        "overhead_pct": result.overhead_pct,
    }


def summarize(result: Figure2Result) -> str:
    return (
        f"step allocation costs {result.overhead_pct:.1f}% more than the "
        f"ideal fractional allocation "
        f"({result.step_cost:,.0f} vs {result.ideal_cost:,.0f} server-slots)"
    )


def claims(result: Figure2Result) -> list:
    allocated = result.allocated_servers
    slack = allocated - result.ideal_servers
    return [
        claim("step allocation never below the ideal curve", "Fig 2b",
              f"min {allocated.min():.0f} server, min slack {slack.min():.2f} servers",
              allocated.min() >= 1 and (slack >= -1e-9).all()),
        claim("step allocation overhead vs ideal", "qualitative gap (Fig 2b)",
              f"{result.overhead_pct:.1f}%", 0.0 < result.overhead_pct < 40.0),
    ]
