"""Experiment: Figure 10 — CDFs of the worst 1% of tail latencies.

For each of the four Figure 9 runs, the CDF of the top 1% of per-second
50th/95th/99th percentile latencies.  "Curves that are higher and far to
the left are better": the reactive approach is worst everywhere;
static-10 is best; P-Store beats static-4 at the tails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..analysis import claim
from .common import by_cell
# ``grid`` is fig09's: the cells are shared, and cached under its name.
from .fig09 import STATIC10_NOTE, TAIL_PROBES_MS, grid  # noqa: F401


@dataclass
class Figure10Result:
    """Top-1% tail CDFs per percentile and run, at :data:`TAIL_PROBES_MS`."""

    #: percentile -> run name -> P(latency <= probe), one per probe.
    cdfs: Dict[float, Dict[str, Tuple[float, ...]]]

    def probability_table(
        self, percentile: float, probes: Tuple[float, ...] = TAIL_PROBES_MS
    ) -> Dict[str, Dict[float, float]]:
        """P(latency <= probe) per run at the given percentile."""
        return {
            name: {
                probe: p
                for probe, p in zip(TAIL_PROBES_MS, cdf) if probe in probes
            }
            for name, cdf in self.cdfs[percentile].items()
        }


def fold(payloads) -> Figure10Result:
    """Fig. 9's payloads, read as their top-1 % tail CDFs."""
    runs = by_cell(payloads)
    return Figure10Result(cdfs={
        q: {
            name: tuple(run["top1pct_cdf"][f"p{int(q)}"])
            for name, run in runs.items()
        }
        for q in (50.0, 95.0, 99.0)
    })


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
              all(p99["p-store"][p] >= p99["reactive"][p] - 1e-9 for p in TAIL_PROBES_MS),
              note="holds = P-Store's p99 tail CDF dominates at every probe"),
        claim("static-10 is best at the tails", "Fig 10",
              f"P(p99 <= 1000 ms): static-10 {at_1s['static-10']:.2f} vs "
              f"p-store {at_1s['p-store']:.2f}",
              at_1s["static-10"] >= at_1s["p-store"] - 1e-9, note=STATIC10_NOTE),
    ]
