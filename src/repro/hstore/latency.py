"""Latency recording and per-second percentile aggregation.

The paper's evaluation reports, per second of the experiment, the 50th,
95th and 99th percentile transaction latency, and counts an SLA violation
for every second in which a percentile exceeds 500 ms (Table 2).  The
:class:`LatencyRecorder` ingests individual (time, latency) samples from
the row-level executor, while :class:`PercentileSeries` holds per-second
percentile curves regardless of which engine produced them.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Sequence

import numpy as np

from ..errors import SimulationError

#: The percentiles the paper tracks.
TRACKED_PERCENTILES = (50.0, 95.0, 99.0)


class PercentileSeries:
    """Per-second latency percentiles for one experiment run."""

    def __init__(
        self,
        seconds: Sequence[int],
        percentiles: Dict[float, np.ndarray],
        throughput: Sequence[float] = (),
    ):
        self.seconds = np.asarray(seconds, dtype=np.int64)
        self.percentiles = {q: np.asarray(v, dtype=float) for q, v in percentiles.items()}
        for q, values in self.percentiles.items():
            if values.size != self.seconds.size:
                raise SimulationError(
                    f"percentile {q} series length mismatch"
                )
        self.throughput = np.asarray(throughput, dtype=float)

    def series(self, q: float) -> np.ndarray:
        try:
            return self.percentiles[q]
        except KeyError:
            raise SimulationError(
                f"percentile {q} was not tracked ({sorted(self.percentiles)})"
            ) from None

    def violations(self, q: float, threshold_ms: float = 500.0) -> int:
        """Seconds in which percentile ``q`` exceeded ``threshold_ms``."""
        return int(np.sum(self.series(q) > threshold_ms))

    def violation_summary(
        self, threshold_ms: float = 500.0
    ) -> Dict[float, int]:
        return {
            q: self.violations(q, threshold_ms) for q in sorted(self.percentiles)
        }

    def top_fraction(self, q: float, fraction: float = 0.01) -> np.ndarray:
        """The worst ``fraction`` of the per-second percentile values.

        Figure 10 plots CDFs of the top 1% of each percentile series.
        """
        if not 0 < fraction <= 1:
            raise SimulationError("fraction must be in (0, 1]")
        values = np.sort(self.series(q))
        k = max(1, int(math.ceil(values.size * fraction)))
        return values[-k:]

    def __len__(self) -> int:
        return int(self.seconds.size)


class LatencyRecorder:
    """Accumulates raw latency samples into per-second percentiles."""

    def __init__(self, percentiles: Sequence[float] = TRACKED_PERCENTILES):
        if not percentiles:
            raise SimulationError("must track at least one percentile")
        self._percentiles = tuple(sorted(percentiles))
        self._samples: Dict[int, List[float]] = defaultdict(list)

    def record(self, time_seconds: float, latency_ms: float) -> None:
        if latency_ms < 0:
            raise SimulationError("latency cannot be negative")
        self._samples[int(time_seconds)].append(latency_ms)

    @property
    def n_samples(self) -> int:
        return sum(len(v) for v in self._samples.values())

    def finalize(self) -> PercentileSeries:
        """Collapse the recorded samples into a :class:`PercentileSeries`.

        Seconds with no samples are skipped (no transactions completed, so
        no percentile is defined for them).
        """
        if not self._samples:
            raise SimulationError("no latency samples recorded")
        seconds = sorted(self._samples)
        series: Dict[float, List[float]] = {q: [] for q in self._percentiles}
        throughput: List[float] = []
        for second in seconds:
            samples = np.asarray(self._samples[second])
            throughput.append(float(samples.size))
            for q in self._percentiles:
                series[q].append(float(np.percentile(samples, q)))
        return PercentileSeries(
            seconds,
            {q: np.asarray(v) for q, v in series.items()},
            throughput=throughput,
        )
