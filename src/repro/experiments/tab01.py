"""Experiment: Table 1 — schedule of parallel migrations for 3 -> 14.

Regenerates the paper's worked example: the complete 11-round,
three-phase schedule, with each round's sender -> receiver pairs and the
just-in-time machine allocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..analysis.report import claim
from ..core.model import avg_machines_allocated
from ..squall import build_migration_schedule, validate_schedule


@dataclass
class Table1Result:
    """The 3 -> 14 schedule's summary statistics."""

    n_rounds: int
    naive_rounds: int           # rounds without the three-phase trick
    average_machines: float
    algorithm4_average: float
    phases: List[Tuple[int, int]]  # (first_round, machines_allocated) steps


def grid(before: int = 3, after: int = 14) -> list:
    from ..runner import RunSpec

    return [
        RunSpec(
            experiment="tab01",
            cell=f"{before}-{after}",
            overrides=(("before", int(before)), ("after", int(after))),
        )
    ]


def run_cell(spec, config) -> dict:
    """Build and validate the Table 1 schedule."""
    before = int(spec.option("before", 3))
    after = int(spec.option("after", 14))
    schedule = build_migration_schedule(before, after)
    validate_schedule(schedule)
    smaller = min(before, after)
    naive = -(-abs(after - before) // smaller) * smaller  # ceil(delta/s) blocks
    phases: List[Tuple[int, int]] = []
    for idx, allocated in enumerate(schedule.allocation):
        if not phases or phases[-1][1] != allocated:
            phases.append((idx + 1, allocated))
    return {
        "n_rounds": schedule.n_rounds,
        "naive_rounds": naive,
        "average_machines": schedule.average_machines(),
        "algorithm4_average": avg_machines_allocated(before, after),
        "phases": phases,
    }


def fold(payloads) -> Table1Result:
    (payload,) = payloads.values()
    return Table1Result(**{
        **payload, "phases": [tuple(phase) for phase in payload["phases"]],
    })


def summarize(result: Table1Result) -> str:
    return (
        f"{result.n_rounds} rounds (naive: {result.naive_rounds}), average "
        f"machines {result.average_machines:.2f} "
        f"(Algorithm 4: {result.algorithm4_average:.2f})"
    )


def claims(result: Table1Result) -> list:
    steps = [machines for _, machines in result.phases]
    return [
        claim("rounds for 3 -> 14", 11, result.n_rounds, result.n_rounds == 11),
        claim("rounds without the 3-phase trick", ">= 12", result.naive_rounds,
              result.naive_rounds == 12),
        claim("avg machines (Algorithm 4)", f"{111 / 11:.3f}",
              f"{result.average_machines:.3f}",
              abs(result.average_machines - result.algorithm4_average) < 1e-9),
        claim("JIT allocation steps", "6, 9, 12, 14", ", ".join(map(str, steps)),
              steps == [6, 9, 12, 14]),
    ]
