"""Experiment: Figure 3 — the goal of the predictive elasticity algorithm.

The paper's schematic: predicted load over T = 9 intervals, starting at
B = 2 machines and ending at A = 4, where the planner must find a series
of moves such that capacity always exceeds demand at minimum cost —
delaying scale-outs as long as possible while starting them early enough
that migration finishes before each rise.

We regenerate it concretely: a rising demand curve, the DP's chosen
moves, and the resulting capacity staircase (with effective capacity
during the moves).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..analysis.report import claim
from ..config import default_config
from ..core import Planner, model
from ..core.moves import MoveSchedule


@dataclass
class Figure3Result:
    """The schematic scenario: demand, plan, and capacity trajectory."""

    demand_tps: np.ndarray          # L[1..T]
    schedule: MoveSchedule
    capacity_tps: np.ndarray        # effective capacity per interval
    machines_end: int
    total_cost: float

    @property
    def capacity_always_exceeds_demand(self) -> bool:
        return bool(np.all(self.capacity_tps >= self.demand_tps - 1e-9))

    def rows(self) -> List[tuple]:
        """(interval, demand, capacity, machines-after) rows for display."""
        out = []
        for t in range(self.demand_tps.size):
            out.append(
                (
                    t + 1,
                    float(self.demand_tps[t]),
                    float(self.capacity_tps[t]),
                    self.schedule.machines_at(t + 1),
                )
            )
        return out


#: The schematic's horizon T (intervals) and starting cluster size B.
HORIZON = 9
START_MACHINES = 2


def run_figure3() -> Figure3Result:
    """Plan the Fig. 3 scenario and compute the capacity trajectory."""
    config = default_config().with_interval(600.0)
    q = config.q
    # A demand curve rising from ~1.6 to ~3.7 machines' worth, like the
    # schematic (2 machines suffice at t=0; 4 are needed by t=T).
    demand = q * np.linspace(1.6, 3.7, HORIZON)
    planner = Planner(config)
    schedule = planner.plan(list(demand), START_MACHINES, current_load=q * 1.5)

    capacity = np.empty(HORIZON)
    for move in schedule:
        for t in range(move.start, move.end):
            if move.is_noop:
                capacity[t] = model.capacity(move.after, q)
            else:
                fraction = (t - move.start + 1) / move.duration
                capacity[t] = model.effective_capacity(
                    move.before, move.after, fraction, q
                )
    total_cost = schedule.total_cost(
        lambda m: planner.move_cost(m.before, m.after)
        if not m.is_noop
        else float(m.duration * m.before)
    )
    return Figure3Result(
        demand_tps=demand,
        schedule=schedule,
        capacity_tps=capacity,
        machines_end=schedule.final_machines,
        total_cost=total_cost,
    )


# ----------------------------------------------------------------------
# Sweep-cell protocol
# ----------------------------------------------------------------------


def grid() -> list:
    from ..runner import RunSpec

    return [RunSpec(experiment="fig03", cell="schematic-plan")]


def run_cell(spec, config) -> dict:
    result = run_figure3()
    return {
        "machines_end": result.machines_end,
        "total_cost": result.total_cost,
        "capacity_always_exceeds_demand": result.capacity_always_exceeds_demand,
    }


def summarize(result: Figure3Result) -> str:
    ok = "yes" if result.capacity_always_exceeds_demand else "NO"
    return (
        f"plan ends at {result.machines_end} machines, cost "
        f"{result.total_cost:,.0f}; capacity covers demand: {ok}"
    )


def claims(result: Figure3Result) -> list:
    first = result.schedule.first_real_move
    covered, end = result.capacity_always_exceeds_demand, result.machines_end
    return [
        claim("capacity exceeds demand throughout", "Fig 3 requirement",
              "yes" if covered else "no", covered),
        claim("ends at A = 4 machines", 4, end, end == 4),
        claim("scale-outs delayed (cost minimised)", "'as late as possible'",
              f"first move starts at interval {first.start if first else '-'}, "
              f"total cost {result.total_cost:.1f} machine-intervals",
              first is not None and first.start > 0),
    ]
