"""Metrics primitives: counters, gauges, and streaming histograms.

The registry keys every instrument by ``(name, sorted labels)`` so a
metric family like ``engine.latency_ms{partition=3}`` is one histogram
per partition without the caller managing the fan-out.  Histograms use
fixed log-spaced buckets (not raw samples), so memory stays constant no
matter how many observations stream in; quantiles are recovered by
linear interpolation inside the owning bucket, clamped to the observed
min/max.

A parallel null implementation (:class:`NullRegistry` and the three
``_Null*`` instruments) backs disabled telemetry: every method is a
no-op and every accessor returns a shared singleton, so instrumented
code pays one attribute check and nothing else.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import TelemetryError

#: Label sets are stored as a canonical sorted tuple of (key, value) pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


#: Default histogram range (0.1 ms to 10 minutes) and resolution.
BUCKET_LO = 0.1
BUCKET_HI = 600_000.0
BUCKETS_PER_DECADE = 5


def default_buckets() -> Tuple[float, ...]:
    """Log-spaced bucket upper bounds covering ``[BUCKET_LO, BUCKET_HI]``.

    5 buckets per decade (~34 buckets) bound the quantile interpolation
    error to about +/-30% of the true value — plenty for p50/p95/p99
    dashboards.
    """
    lo, hi = BUCKET_LO, BUCKET_HI
    n = int(math.ceil(BUCKETS_PER_DECADE * math.log10(hi / lo)))
    ratio = (hi / lo) ** (1.0 / n)
    return tuple(lo * ratio ** i for i in range(n + 1))


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise TelemetryError("counters can only increase")
        self._value += amount

    def inc_many(self, amounts) -> None:
        """Add every element of ``amounts`` in order: bit-identical to a
        loop of :meth:`inc`.  A negative element raises
        :class:`TelemetryError` before anything is added, so the count
        does not move."""
        amounts = np.asarray(amounts, dtype=float).ravel()
        if (amounts < 0).any():
            raise TelemetryError("counters can only increase")
        if amounts.size:
            self._value = _sequential_sum(self._value, amounts)

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "labels": dict(self.labels),
            "value": self._value,
        }


def _sequential_sum(start: float, values: np.ndarray) -> float:
    """``start`` plus each of ``values`` left to right, rounding after
    every addition exactly as a ``+=`` loop does (``np.sum``'s pairwise
    order would round differently), and as silently on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.add.accumulate(np.concatenate(([start], values)))[-1])


class Gauge:
    """A value that can go up and down (machines, utilization, ...)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def add(self, delta: float) -> None:
        self._value += delta

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "labels": dict(self.labels),
            "value": self._value,
        }


class Histogram:
    """Fixed-bucket streaming histogram with interpolated quantiles.

    ``bounds[i]`` is the inclusive upper edge of bucket ``i``; one extra
    overflow bucket catches everything above the last edge.  Only the
    per-bucket counts plus count/sum/min/max are stored.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "bounds", "_counts", "count", "sum",
                 "min", "max")

    def __init__(
        self,
        name: str,
        labels: LabelKey = (),
        bounds: Optional[Iterable[float]] = None,
    ):
        self.name = name
        self.labels = labels
        self.bounds: Tuple[float, ...] = (
            tuple(bounds) if bounds is not None else default_buckets()
        )
        if not self.bounds or any(
            b <= a for a, b in zip(self.bounds, self.bounds[1:])
        ):
            raise TelemetryError("histogram bounds must be strictly increasing")
        self._counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        # Binary search for the first edge >= value.
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        self._counts[lo] += 1

    def observe_many(self, values) -> None:
        """Observe every element of ``values`` in order: bit-identical to
        a loop of :meth:`observe`.  The sum is accumulated left to
        right, a value lands in the first bucket whose edge is ``>=`` it
        (``searchsorted(side="left")``, the binary search's rule), and
        NaN goes to the overflow bucket without touching min/max."""
        values = np.asarray(values, dtype=float).ravel()
        if not values.size:
            return
        self.count += int(values.size)
        self.sum = _sequential_sum(self.sum, values)
        seen = values[~np.isnan(values)]
        if seen.size:
            # argmin/argmax return the first of equal extremes, the one a
            # strict-comparison loop keeps (it matters for -0.0 vs 0.0).
            low = float(seen[np.argmin(seen)])
            high = float(seen[np.argmax(seen)])
            if low < self.min:
                self.min = low
            if high > self.max:
                self.max = high
        hits = np.bincount(
            np.searchsorted(self.bounds, values, side="left"),
            minlength=len(self._counts),
        )
        for i in np.flatnonzero(hits).tolist():
            self._counts[i] += int(hits[i])

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Interpolated ``q``-quantile (``q`` in [0, 1]) of what streamed in."""
        if not 0.0 <= q <= 1.0:
            raise TelemetryError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, n in enumerate(self._counts):
            if n == 0:
                continue
            if cumulative + n >= rank:
                lower = self.bounds[i - 1] if i > 0 else min(self.min, self.bounds[0])
                upper = self.bounds[i] if i < len(self.bounds) else self.max
                within = (rank - cumulative) / n
                est = lower + (upper - lower) * max(0.0, min(1.0, within))
                return max(self.min, min(self.max, est))
            cumulative += n
        return self.max

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "labels": dict(self.labels),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "quantiles": {
                "p50": self.quantile(0.50),
                "p95": self.quantile(0.95),
                "p99": self.quantile(0.99),
            },
            "buckets": [
                {"le": edge, "count": n}
                for edge, n in zip(self.bounds, self._counts)
                if n
            ]
            + (
                [{"le": None, "count": self._counts[-1]}]
                if self._counts[-1]
                else []
            ),
        }


class MetricsRegistry:
    """Process-wide home of every live instrument, keyed by name+labels."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelKey], object] = {}

    def _get(self, cls, name: str, labels: Dict[str, object], **kwargs):
        key = (name, _label_key(labels))
        found = self._metrics.get(key)
        if found is None:
            found = cls(name, key[1], **kwargs)
            self._metrics[key] = found
        elif not isinstance(found, cls):
            raise TelemetryError(
                f"metric {name!r} already registered as {found.kind}"
            )
        return found

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, bounds: Optional[Iterable[float]] = None, **labels
    ) -> Histogram:
        return self._get(Histogram, name, labels, bounds=bounds)

    def __len__(self) -> int:
        return len(self._metrics)

    def instruments(self) -> List[object]:
        return [self._metrics[k] for k in sorted(self._metrics)]

    def snapshot(self) -> List[dict]:
        """All instruments as plain dicts, sorted by (name, labels)."""
        return [m.snapshot() for m in self.instruments()]


# ----------------------------------------------------------------------
# No-op twins for disabled telemetry
# ----------------------------------------------------------------------


class _NullCounter:
    kind = "counter"
    name = ""
    labels: LabelKey = ()
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def inc_many(self, amounts) -> None:
        pass

    def snapshot(self) -> dict:
        return {}


class _NullGauge:
    kind = "gauge"
    name = ""
    labels: LabelKey = ()
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def snapshot(self) -> dict:
        return {}


class _NullHistogram:
    kind = "histogram"
    name = ""
    labels: LabelKey = ()
    count = 0
    sum = 0.0
    mean = 0.0

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def snapshot(self) -> dict:
        return {}


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullRegistry:
    """Registry whose instruments do nothing; shared by disabled telemetry."""

    def counter(self, name: str, **labels) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, **labels) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str, bounds=None, **labels) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def __len__(self) -> int:
        return 0

    def instruments(self) -> List[object]:
        return []

    def snapshot(self) -> List[dict]:
        return []


NULL_REGISTRY = NullRegistry()
