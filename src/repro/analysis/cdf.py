"""Empirical CDFs of tail latencies (Figure 10).

Figure 10 compares elasticity approaches "in terms of CDFs of the top 1%
of 50th, 95th and 99th percentile latencies measured each second".
Curves that are higher and further left are better.  The figure's
probe table is ``experiments.fig10``'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import SimulationError
from ..hstore.latency import PercentileSeries


@dataclass(frozen=True)
class EmpiricalCdf:
    """Sorted sample values and their cumulative probabilities."""

    values: np.ndarray
    cumulative: np.ndarray

    def probability_at(self, x: float) -> float:
        """P(value <= x)."""
        return float(np.searchsorted(self.values, x, side="right")) / self.values.size

    def quantile(self, p: float) -> float:
        if not 0 <= p <= 1:
            raise SimulationError("p must be in [0, 1]")
        return float(np.quantile(self.values, p))


def empirical_cdf(samples: Sequence[float]) -> EmpiricalCdf:
    values = np.sort(np.asarray(samples, dtype=float))
    if values.size == 0:
        raise SimulationError("cannot build a CDF from no samples")
    cumulative = np.arange(1, values.size + 1) / values.size
    return EmpiricalCdf(values=values, cumulative=cumulative)


def top_tail_cdf(
    series: PercentileSeries, q: float, fraction: float = 0.01
) -> EmpiricalCdf:
    """CDF of the worst ``fraction`` of a per-second percentile series."""
    return empirical_cdf(series.top_fraction(q, fraction))
