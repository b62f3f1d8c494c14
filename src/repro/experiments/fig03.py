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
from typing import List, Tuple

import numpy as np

from ..analysis.report import claim
from ..core import Planner, model


@dataclass
class Figure3Result:
    """The schematic scenario's plan and whether it covers demand."""

    machines_end: int
    total_cost: float
    capacity_always_exceeds_demand: bool
    #: The plan's real moves as ``(before, after, start, end)`` intervals.
    moves: List[Tuple[int, int, int, int]]


#: The schematic's horizon T (intervals) and starting cluster size B.
HORIZON = 9
START_MACHINES = 2


def grid() -> list:
    from ..runner import RunSpec

    return [RunSpec(experiment="fig03", cell="schematic-plan")]


def run_cell(spec, config) -> dict:
    """Plan the Fig. 3 scenario at 10-minute intervals and trace the
    capacity its moves deliver."""
    config = config.with_interval(600.0)
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
    return {
        "machines_end": schedule.final_machines,
        "total_cost": total_cost,
        "capacity_always_exceeds_demand": bool(
            np.all(capacity >= demand - 1e-9)
        ),
        "moves": [
            [m.before, m.after, m.start, m.end]
            for m in schedule if not m.is_noop
        ],
    }


def fold(payloads) -> Figure3Result:
    (payload,) = payloads.values()
    return Figure3Result(**{
        **payload, "moves": [tuple(move) for move in payload["moves"]],
    })


def summarize(result: Figure3Result) -> str:
    ok = "yes" if result.capacity_always_exceeds_demand else "NO"
    return (
        f"plan ends at {result.machines_end} machines, cost "
        f"{result.total_cost:,.0f}; capacity covers demand: {ok}"
    )


def claims(result: Figure3Result) -> list:
    first = result.moves[0][2] if result.moves else None
    covered, end = result.capacity_always_exceeds_demand, result.machines_end
    return [
        claim("capacity exceeds demand throughout", "Fig 3 requirement",
              "yes" if covered else "no", covered),
        claim("ends at A = 4 machines", 4, end, end == 4),
        claim("scale-outs delayed (cost minimised)", "'as late as possible'",
              f"first move starts at interval {'-' if first is None else first}, "
              f"total cost {result.total_cost:.1f} machine-intervals",
              first is not None and first > 0),
    ]
