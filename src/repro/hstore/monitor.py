"""System monitoring: aggregate-load measurement.

The Predictive Controller "uses H-Store's system calls to obtain
measurements of the aggregate load of the system" (Sec. 6), sampled into
fixed planner intervals.  :class:`LoadMonitor` provides that windowing:
transaction arrivals (or completed counts) stream in with timestamps and
come out as one aggregate rate per interval.

Partition skew is read off the routing layer's per-bucket counters
(:meth:`repro.hstore.cluster.Cluster.partition_access_counts`).
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from ..persist import Persisted, Series
from ..telemetry import get_telemetry


class LoadMonitor(Persisted):
    """Aggregates a stream of transaction counts into interval rates.

    The monitor holds the series; it does not publish it.  The loop that
    owns the monitor writes one ``interval`` span per closed slot (the
    allocation belongs in the same row and only the loop knows it).  With
    telemetry enabled the monitor keeps the ``monitor.load_tps`` gauge
    and ``monitor.intervals_closed`` counter current and hands every
    closed slot, empty ones included, to the accuracy tracker.

    Interval boundaries are derived as ``origin + k * interval_seconds``
    (the origin is time 0, or what a checkpoint restores) rather than by
    repeated addition, so they stay exact over arbitrarily long runs
    (repeated ``+=`` accumulates one rounding error per interval).

    Checkpointed for ``pstore serve --resume``; restored intervals are
    not harvested into the accuracy tracker again, only those closed
    afterwards are.
    """

    PERSIST_MATCH = ("interval_seconds",)
    PERSIST = ("_origin", "_closed", "_current_count", "_rates")

    def __init__(self, interval_seconds: float, telemetry=None):
        if interval_seconds <= 0:
            raise SimulationError("interval_seconds must be positive")
        self.interval_seconds = interval_seconds
        self._origin = 0.0
        self._closed = 0
        self._current_count = 0.0
        self._rates = Series()
        self._telemetry = telemetry if telemetry is not None else get_telemetry()

    @property
    def completed_intervals(self) -> int:
        return len(self._rates)

    def _boundary(self, k: int) -> float:
        """Exact start of interval ``k``: origin + k * interval."""
        return self._origin + k * self.interval_seconds

    @property
    def _interval_start(self) -> float:
        """Start of the open interval (derived, never accumulated)."""
        return self._boundary(self._closed)

    def _interval_index(self, timestamp: float) -> int:
        """Index of the interval containing ``timestamp``.

        ``floor`` on the quotient can misplace timestamps that sit on a
        boundary the float grid cannot represent exactly (0.1-second
        intervals, say); the correction loops pin the result to the
        canonical ``origin + k * interval`` boundaries.
        """
        k = int((timestamp - self._origin) // self.interval_seconds)
        while self._boundary(k + 1) <= timestamp:
            k += 1
        while self._boundary(k) > timestamp:
            k -= 1
        return k

    def record(self, timestamp: float, count: float = 1.0) -> int:
        """Record ``count`` transactions at ``timestamp``.

        Returns the number of intervals closed by this observation (0 in
        the common case; >= 1 when the timestamp crosses a boundary, in
        which case intervening empty intervals are appended as zero
        load).
        """
        if count < 0:
            raise SimulationError("count must be non-negative")
        if timestamp < self._interval_start:
            raise SimulationError(
                f"timestamp {timestamp} is before the open interval "
                f"starting at {self._interval_start}"
            )
        closed = self._interval_index(timestamp) - self._closed
        if closed > 0:
            # Close the open interval with whatever it counted; any
            # intervals skipped behind it are empty.
            first = len(self._rates)
            self._rates.append(self._current_count / self.interval_seconds)
            self._rates.extend([0.0] * (closed - 1))
            tel = self._telemetry
            if tel.enabled:
                for i in range(closed):
                    tel.accuracy.observe(
                        first + i, self._rates[first + i],
                        time=self._boundary(self._closed + 1 + i),
                    )
                tel.metrics.gauge("monitor.load_tps").set(self._rates[-1])
                tel.metrics.counter("monitor.intervals_closed").inc(closed)
            self._current_count = 0.0
            self._closed += closed
        else:
            closed = 0
        self._current_count += count
        return closed

    def _rebuild(self) -> None:
        self._rates = Series(self._rates)

    def history_tps(self) -> np.ndarray:
        """Aggregate rate (txn/s) of every *closed* interval."""
        return np.asarray(self._rates)
