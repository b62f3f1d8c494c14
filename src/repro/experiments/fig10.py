"""Experiment: Figure 10 — CDFs of the worst 1% of tail latencies.

For each of the four Figure 9 runs, the CDF of the top 1% of per-second
50th/95th/99th percentile latencies.  "Curves that are higher and far to
the left are better": the reactive approach is worst everywhere;
static-10 is best; P-Store beats static-4 at the tails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..analysis import EmpiricalCdf, claim, top_tail_cdf
# ``grid`` is fig09's: the cells are shared, and cached under its name.
from .fig09 import STATIC10_NOTE, Figure9Result, grid, run_figure9  # noqa: F401

#: Probe latencies (ms) at which each CDF is tabulated.
PROBES_MS = (300.0, 500.0, 1000.0, 2000.0, 5000.0)


@dataclass
class Figure10Result:
    """Top-1% tail CDFs per percentile and run."""

    #: percentile -> run name -> CDF of its top-1% values.
    cdfs: Dict[float, Dict[str, EmpiricalCdf]]
    figure9: Figure9Result

    def probability_table(
        self, percentile: float, probes: Tuple[float, ...] = PROBES_MS
    ) -> Dict[str, Dict[float, float]]:
        """P(latency <= probe) per run at the given percentile."""
        return {
            name: {p: cdf.probability_at(p) for p in probes}
            for name, cdf in self.cdfs[percentile].items()
        }


def run_figure10(
    figure9: Optional[Figure9Result] = None,
    eval_days: int = 3,
    seed: int = 21,
    fraction: float = 0.01,
) -> Figure10Result:
    """Build the tail CDFs (reusing Figure 9 runs when supplied)."""
    figure9 = figure9 or run_figure9(eval_days=eval_days, seed=seed)
    cdfs: Dict[float, Dict[str, EmpiricalCdf]] = {}
    for q in (50.0, 95.0, 99.0):
        cdfs[q] = {
            name: top_tail_cdf(result.latency, q, fraction)
            for name, result in figure9.runs.items()
        }
    return Figure10Result(cdfs=cdfs, figure9=figure9)


def summarize(result: Figure10Result) -> str:
    lines = []
    table = result.probability_table(99.0, probes=(500.0, 1000.0))
    for name, probs in table.items():
        rendered = ", ".join(
            f"P(<= {int(p)}ms) = {v:.2f}" for p, v in probs.items()
        )
        lines.append(f"{name} (p99 tail): {rendered}")
    return "\n".join(lines)


def claims(result: Figure10Result) -> list:
    p99 = result.probability_table(99.0)
    at_1s = {name: probs[1000.0] for name, probs in p99.items()}
    return [
        claim("reactive is worst in all three plots", "Fig 10",
              f"P(p99 <= 1000 ms): reactive {at_1s['reactive']:.2f} vs "
              f"p-store {at_1s['p-store']:.2f}",
              all(p99["p-store"][p] >= p99["reactive"][p] - 1e-9 for p in PROBES_MS),
              note="holds = P-Store's p99 tail CDF dominates at every probe"),
        claim("static-10 is best at the tails", "Fig 10",
              f"P(p99 <= 1000 ms): static-10 {at_1s['static-10']:.2f} vs "
              f"p-store {at_1s['p-store']:.2f}",
              at_1s["static-10"] >= at_1s["p-store"] - 1e-9, note=STATIC10_NOTE),
    ]
