"""Cross-run metric helpers for the evaluation tables.

These functions assemble the numbers reported in Table 2 (SLA violations
and average machines per strategy) and the normalised-cost comparisons of
Figure 12 into plain dictionaries the benches can render.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..errors import SimulationError
from .capacity_sim import CapacitySimResult
from .simulator import SimulationResult


@dataclass(frozen=True)
class SlaRow:
    """One row of Table 2."""

    approach: str
    violations_p50: int
    violations_p95: int
    violations_p99: int
    average_machines: float


def sla_table(results: Sequence[SimulationResult]) -> List[SlaRow]:
    """Build Table 2 from a set of benchmark runs."""
    rows = []
    for result in results:
        violations = result.sla_violations()
        rows.append(
            SlaRow(
                approach=result.strategy_name,
                violations_p50=violations.get(50.0, 0),
                violations_p95=violations.get(95.0, 0),
                violations_p99=violations.get(99.0, 0),
                average_machines=result.average_machines,
            )
        )
    return rows


@dataclass(frozen=True)
class CapacityCostPoint:
    """One point of Figure 12: a (strategy, Q) simulation."""

    strategy: str
    q: float
    normalized_cost: float
    pct_time_insufficient: float


def capacity_cost_points(
    results: Dict[str, List[CapacitySimResult]],
    qs: Dict[str, List[float]],
    baseline_cost: float,
) -> List[CapacityCostPoint]:
    """Normalise capacity-sim sweeps against a baseline cost.

    ``results[name]`` holds one result per swept Q (``qs[name]``);
    ``baseline_cost`` is the machine-slot cost of the default P-Store
    run, which the paper uses as cost = 1.0.
    """
    if baseline_cost <= 0:
        raise SimulationError("baseline cost must be positive")
    points: List[CapacityCostPoint] = []
    for name, runs in results.items():
        q_values = qs[name]
        if len(q_values) != len(runs):
            raise SimulationError(f"sweep mismatch for strategy {name!r}")
        for q, run in zip(q_values, runs):
            points.append(
                CapacityCostPoint(
                    strategy=name,
                    q=q,
                    normalized_cost=run.cost_machine_slots / baseline_cost,
                    pct_time_insufficient=run.pct_time_insufficient,
                )
            )
    return points


def relative_improvement(baseline: int, improved: int) -> float:
    """Percentage reduction, e.g. P-Store's "72% fewer latency violations"."""
    if baseline <= 0:
        raise SimulationError("baseline count must be positive")
    return 100.0 * (baseline - improved) / baseline
