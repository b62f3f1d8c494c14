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
from ..workload import sine_trace


@dataclass
class Figure2Result:
    """The step allocation's cost gap to the ideal one."""

    ideal_cost: float                 # sum of fractional servers
    step_cost: float                  # sum of allocated servers
    overhead_pct: float               # step vs ideal cost
    min_servers: float                # the step function's lowest step
    min_slack: float                  # min (allocated - ideal) servers


#: Ideal capacity is demand plus this buffer.
BUFFER_FRACTION = 0.10
#: Slots in the one sinusoidal day (5-minute slots).
SLOTS = 288


def grid() -> list:
    from ..runner import RunSpec

    return [RunSpec(experiment="fig02", cell="step-overhead")]


def run_cell(spec, config) -> dict:
    """Compute the ideal (2a) and step (2b) allocations for one
    sinusoidal day."""
    slot_seconds = 86_400.0 / SLOTS
    trace = sine_trace(
        n_days=1,
        slot_seconds=slot_seconds,
        low=0.5 * config.q * slot_seconds,
        high=7.5 * config.q * slot_seconds,
    )
    demand = trace.as_rate_per_second()
    ideal_servers = demand * (1.0 + BUFFER_FRACTION) / config.q
    allocated = np.ceil(ideal_servers - 1e-9).clip(1)
    ideal_cost = float(ideal_servers.sum())
    step_cost = float(allocated.sum())
    return {
        "ideal_cost": ideal_cost,
        "step_cost": step_cost,
        "overhead_pct": 100.0 * (step_cost - ideal_cost) / ideal_cost,
        "min_servers": float(allocated.min()),
        "min_slack": float((allocated - ideal_servers).min()),
    }


def fold(payloads) -> Figure2Result:
    (payload,) = payloads.values()
    return Figure2Result(**payload)


def summarize(result: Figure2Result) -> str:
    return (
        f"step allocation costs {result.overhead_pct:.1f}% more than the "
        f"ideal fractional allocation "
        f"({result.step_cost:,.0f} vs {result.ideal_cost:,.0f} server-slots)"
    )


def claims(result: Figure2Result) -> list:
    lowest, slack = result.min_servers, result.min_slack
    return [
        claim("step allocation never below the ideal curve", "Fig 2b",
              f"min {lowest:.0f} server, min slack {slack:.2f} servers",
              lowest >= 1 and slack >= -1e-9),
        claim("step allocation overhead vs ideal", "qualitative gap (Fig 2b)",
              f"{result.overhead_pct:.1f}%", 0.0 < result.overhead_pct < 40.0),
    ]
