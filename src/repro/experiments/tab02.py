"""Experiment: Table 2 — SLA violations and machine usage per approach.

The paper's headline comparison: seconds in which the 50th/95th/99th
percentile latency exceeded 500 ms, plus the average machines allocated,
for static-10, static-4, reactive, and P-Store.  The claims to
reproduce: static-10 has the fewest violations but >= 2x the machines;
P-Store causes roughly a third of the reactive approach's violations
(72% fewer, summed) while using about half of peak provisioning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from ..analysis.report import ascii_table, claim
from .common import violations
# ``grid`` is fig09's: the cells are shared, and cached under its name.
from .fig09 import STATIC10_NOTE, grid  # noqa: F401


@dataclass(frozen=True)
class SlaRow:
    """One row of Table 2."""

    approach: str
    violations_p50: int
    violations_p95: int
    violations_p99: int
    average_machines: float


def sla_table(payloads: Iterable[dict]) -> List[SlaRow]:
    """Build Table 2 from benchmark runs' :func:`~.common.sim_payload`."""
    rows = []
    for payload in payloads:
        seconds = violations(payload)
        rows.append(
            SlaRow(
                approach=payload["strategy"],
                violations_p50=seconds.get(50.0, 0),
                violations_p95=seconds.get(95.0, 0),
                violations_p99=seconds.get(99.0, 0),
                average_machines=payload["average_machines"],
            )
        )
    return rows


def render_sla_table(rows: Sequence[SlaRow]) -> str:
    """Format Table 2."""
    return ascii_table(
        [
            "Elasticity Approach",
            "50th %ile",
            "95th %ile",
            "99th %ile",
            "Avg Machines",
        ],
        [
            (
                row.approach,
                row.violations_p50,
                row.violations_p95,
                row.violations_p99,
                round(row.average_machines, 2),
            )
            for row in rows
        ],
        title="SLA violations (seconds over 500 ms) and machine usage",
    )


#: The paper's Table 2, for side-by-side reporting.
PAPER_TABLE2 = (
    SlaRow("static-10", 0, 13, 25, 10.0),
    SlaRow("static-4", 0, 157, 249, 4.0),
    SlaRow("reactive", 35, 220, 327, 4.02),
    SlaRow("p-store", 0, 37, 92, 5.05),
)


@dataclass
class Table2Result:
    """Measured Table 2 rows plus comparison helpers."""

    rows: List[SlaRow]

    def row(self, approach: str) -> SlaRow:
        for row in self.rows:
            if row.approach == approach:
                return row
        raise KeyError(approach)

    def total_violations(self, approach: str) -> int:
        row = self.row(approach)
        return row.violations_p50 + row.violations_p95 + row.violations_p99

    @property
    def pstore_vs_reactive_reduction_pct(self) -> float:
        """The paper's "72% fewer latency violations" headline."""
        reactive = self.total_violations("reactive")
        pstore = self.total_violations("p-store")
        return 100.0 * (reactive - pstore) / max(reactive, 1)


def fold(payloads) -> Table2Result:
    """Fig. 9's payloads, in grid (the paper's row) order."""
    return Table2Result(rows=sla_table(payloads.values()))


def summarize(result: Table2Result) -> str:
    lines = []
    for row in result.rows:
        lines.append(
            f"{row.approach}: p50={row.violations_p50} "
            f"p95={row.violations_p95} p99={row.violations_p99} "
            f"avg machines {row.average_machines:.2f}"
        )
    lines.append(
        "p-store vs reactive: "
        f"{result.pstore_vs_reactive_reduction_pct:.0f}% fewer violations"
    )
    return "\n".join(lines)


def claims(result: Table2Result) -> list:
    def cells(row: SlaRow) -> str:
        return (f"{row.violations_p50}/{row.violations_p95}/{row.violations_p99}, "
                f"{row.average_machines:.2f}")

    pstore, static10 = result.row("p-store"), result.row("static-10")
    total = {row.approach: result.total_violations(row.approach) for row in result.rows}
    return [
        claim(f"{paper.approach} (p50/p95/p99 violations, avg machines)",
              cells(paper), cells(result.row(paper.approach)))
        for paper in PAPER_TABLE2
    ] + [
        claim("P-Store vs reactive: fewer violations", "72% fewer",
              f"{result.pstore_vs_reactive_reduction_pct:.0f}% fewer",
              result.pstore_vs_reactive_reduction_pct > 50.0),
        claim("P-Store machines vs peak static", "5.05 vs 10 (~50%)",
              f"{pstore.average_machines:.2f} vs {static10.average_machines:.0f}",
              pstore.average_machines < 0.6 * static10.average_machines),
        claim("static-10 is best at the tails (fewest violations)", "38 vs P-Store 129",
              f"{total['static-10']} vs P-Store {total['p-store']}",
              total["static-10"] <= total["p-store"], note=STATIC10_NOTE),
        claim("P-Store violates less than reactive", "129 vs 582",
              f"{total['p-store']} vs {total['reactive']}",
              total["p-store"] < total["reactive"]),
        claim("P-Store violates less than static-4", "129 vs 406",
              f"{total['p-store']} vs {total['static-4']}",
              total["p-store"] < total["static-4"]),
    ]
