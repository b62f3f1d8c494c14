"""Experiment: Figure 4 — servers allocated and effective capacity
during migration.

For the paper's three scheduling cases (3->5, 3->9, 3->14 with one
partition per server) we tabulate, across the move, the just-in-time
machine allocation and the effective capacity of Eq. 7 — showing how far
effective capacity lags behind the machines physically present for large
moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..analysis.report import claim
from ..core.model import move_profile, move_time

#: The three cases shown in the paper's Figure 4.
FIGURE4_CASES: Tuple[Tuple[int, int], ...] = ((3, 5), (3, 9), (3, 14))


@dataclass
class Figure4Case:
    """One move's duration and allocation gap."""

    before: int
    after: int
    duration_in_d: float      # move duration in units of D
    max_allocation_gap: float  # max (machines - effcap/Q) across the move


@dataclass
class Figure4Result:
    """The three Fig. 4 migration cases."""

    cases: List[Figure4Case]

    def case(self, before: int, after: int) -> Figure4Case:
        for case in self.cases:
            if (case.before, case.after) == (before, after):
                return case
        raise KeyError((before, after))


def grid() -> list:
    from ..runner import RunSpec

    return [
        RunSpec(
            experiment="fig04",
            cell=f"{before}-{after}",
            overrides=(("before", before), ("after", after)),
        )
        for before, after in FIGURE4_CASES
    ]


def run_cell(spec, config) -> dict:
    """One move's just-in-time allocation against its effective capacity."""
    before = int(spec.option("before"))
    after = int(spec.option("after"))
    profile = move_profile(before, after, q=config.q)
    gaps = [
        machines - eff / config.q
        for machines, eff in zip(profile.machines, profile.eff_cap[1:])
    ]
    return {
        "before": before,
        "after": after,
        "duration_in_d": move_time(before, after),
        "max_allocation_gap": max(gaps) if gaps else 0.0,
    }


def fold(payloads) -> Figure4Result:
    return Figure4Result(
        cases=[Figure4Case(**payload) for payload in payloads.values()]
    )


def summarize(result: Figure4Result) -> str:
    return "\n".join(
        f"{case.before} -> {case.after}: {case.duration_in_d:.2f} D, max "
        f"allocation gap {case.max_allocation_gap:.2f} machines"
        for case in result.cases
    )


def claims(result: Figure4Result) -> list:
    small = result.case(3, 5).max_allocation_gap
    large = result.case(3, 14).max_allocation_gap
    return [
        claim("3->5: eff-cap close to allocation", "Fig 4a",
              f"max gap {small:.2f} machines", small < large),
        claim("3->14: eff-cap lags allocation", "Fig 4c (significant)",
              f"max gap {large:.2f} machines", large > 4.0),
    ]
