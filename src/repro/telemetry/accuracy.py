"""Live prediction-error tracking (forecast accountability).

The :class:`AccuracyTracker` turns "how wrong was SPAR?" from an offline
post-processing question into a first-class streaming quantity: every
controller forecast registers its per-tau predictions against future
slot indices, and as the simulation clock closes each interval the pair
``(predicted, observed)`` is harvested into a rolling window keyed by
``(predictor, tau)``.  From those windows it exposes, through the
ordinary metrics registry:

``forecast.pairs{predictor,tau}``
    harvested pairs (counter);
``forecast.mape_pct`` / ``forecast.smape_pct`` / ``forecast.bias_pct``
    rolling-window error gauges per ``{predictor,tau}`` — bias is
    signed, positive when the forecast *over*-shoots;
``forecast.coverage_pct``
    how often the *inflated* forecast actually covered the observed
    load (the paper's 15% buffer doing its job);
``forecast.over_machine_intervals`` / ``forecast.under_machine_intervals``
    provisioning cost of the error: machine-intervals the inflated
    forecast would have over- or under-provisioned relative to the
    observed load (requires :meth:`configure` with the capacity ``q``);
``forecast.pairs_dropped``
    registered forecasts whose target slot was never observed.

This is exactly the error signal a live control plane needs to trigger
fallback-to-reactive when prediction quality degrades under drift.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..persist import Persisted

#: Default rolling-window size per (predictor, tau): one day of
#: 5-minute intervals.
DEFAULT_WINDOW = 288

#: Percent-error histogram bucket edges (0.1% .. ~1000%).
ERROR_PCT_BOUNDS = tuple(0.1 * (10 ** 0.25) ** i for i in range(17))

_PairWindow = Deque[Tuple[float, Optional[float], float]]


class AccuracyTracker(Persisted):
    """Rolling (predicted, observed) windows per predictor and tau."""

    enabled = True

    def __init__(self, metrics=None, window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValueError("window must be >= 1 pair")
        self.window = int(window)
        self._metrics = metrics
        #: target slot -> forecasts awaiting that slot's measurement.
        self._pending: Dict[int, List[dict]] = {}
        #: (predictor, tau) -> deque of (predicted, inflated, actual).
        self._windows: Dict[Tuple[str, int], _PairWindow] = {}
        self._pairs_total: Dict[Tuple[str, int], int] = {}
        self._over_cost: Dict[Tuple[str, int], int] = {}
        self._under_cost: Dict[Tuple[str, int], int] = {}
        self._dropped = 0
        self._q: Optional[float] = None

    def configure(self, q: Optional[float] = None) -> None:
        """Attach model parameters (the per-machine capacity ``Q`` in
        txn/s) so errors can be costed in machine-intervals."""
        if q is not None:
            if q <= 0:
                raise ValueError("q must be positive")
            self._q = float(q)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record_forecast(
        self,
        origin_slot: int,
        predicted: Sequence[float],
        inflated: Optional[Sequence[float]] = None,
        predictor: str = "predictor",
        snapshot_id: Optional[str] = None,
        time: Optional[float] = None,
    ) -> None:
        """Register one horizon forecast made *after* observing
        ``origin_slot``: ``predicted[i]`` targets slot
        ``origin_slot + 1 + i`` (tau = ``i + 1``)."""
        for i, value in enumerate(predicted):
            target = int(origin_slot) + 1 + i
            self._pending.setdefault(target, []).append(
                {
                    "predictor": str(predictor),
                    "tau": i + 1,
                    "predicted": float(value),
                    "inflated": (
                        float(inflated[i]) if inflated is not None else None
                    ),
                    "snapshot_id": snapshot_id,
                    "origin_slot": int(origin_slot),
                    "time": time,
                }
            )

    def observe(
        self, slot: int, actual: float, time: Optional[float] = None
    ) -> List[dict]:
        """Harvest every forecast that targeted ``slot``.

        Returns the harvested entries (smallest tau — the most recent
        forecast — first), each augmented with ``actual``.  Pending
        forecasts for slots already behind ``slot`` are evicted as
        dropped: slots close monotonically, so they can never be
        observed any more.
        """
        slot = int(slot)
        stale = [s for s in self._pending if s < slot]
        dropped = 0
        for s in stale:
            dropped += len(self._pending.pop(s))
        self._dropped += dropped
        if dropped and self._metrics is not None:
            self._metrics.counter("forecast.pairs_dropped").inc(dropped)
        harvest = self._pending.pop(slot, [])
        harvest.sort(key=lambda entry: entry["tau"])
        actual = float(actual)
        for entry in harvest:
            entry["actual"] = actual
            self._absorb(entry)
        return harvest

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def _absorb(self, entry: dict) -> None:
        key = (entry["predictor"], entry["tau"])
        window = self._windows.get(key)
        if window is None:
            window = deque(maxlen=self.window)
            self._windows[key] = window
        window.append((entry["predicted"], entry["inflated"], entry["actual"]))
        self._pairs_total[key] = self._pairs_total.get(key, 0) + 1
        if self._q is not None and entry["inflated"] is not None:
            provisioned = math.ceil(entry["inflated"] / self._q)
            needed = math.ceil(entry["actual"] / self._q)
            self._over_cost[key] = (
                self._over_cost.get(key, 0) + max(0, provisioned - needed)
            )
            self._under_cost[key] = (
                self._under_cost.get(key, 0) + max(0, needed - provisioned)
            )
        self._publish(key, entry)

    @staticmethod
    def _window_stats(window: _PairWindow) -> dict:
        """MAPE / sMAPE / signed bias / coverage over one rolling window."""
        ape: List[float] = []
        sape: List[float] = []
        bias: List[float] = []
        covered = 0
        coverable = 0
        for predicted, inflated, actual in window:
            if actual > 0:
                ape.append(abs(predicted - actual) / actual)
                bias.append((predicted - actual) / actual)
            denom = abs(predicted) + abs(actual)
            if denom > 0:
                sape.append(2.0 * abs(predicted - actual) / denom)
            if inflated is not None:
                coverable += 1
                if actual <= inflated:
                    covered += 1
        return {
            "mape_pct": 100.0 * sum(ape) / len(ape) if ape else None,
            "smape_pct": 100.0 * sum(sape) / len(sape) if sape else None,
            "bias_pct": 100.0 * sum(bias) / len(bias) if bias else None,
            "coverage_pct": (
                100.0 * covered / coverable if coverable else None
            ),
        }

    def _publish(self, key: Tuple[str, int], entry: dict) -> None:
        metrics = self._metrics
        if metrics is None:
            return
        predictor, tau = key
        labels = {"predictor": predictor, "tau": str(tau)}
        metrics.counter("forecast.pairs", **labels).inc()
        stats = self._window_stats(self._windows[key])
        for name, value in (
            ("forecast.mape_pct", stats["mape_pct"]),
            ("forecast.smape_pct", stats["smape_pct"]),
            ("forecast.bias_pct", stats["bias_pct"]),
            ("forecast.coverage_pct", stats["coverage_pct"]),
        ):
            if value is not None:
                metrics.gauge(name, **labels).set(value)
        if entry["actual"] > 0:
            metrics.histogram(
                "forecast.abs_pct_error", bounds=ERROR_PCT_BOUNDS, **labels
            ).observe(
                100.0 * abs(entry["predicted"] - entry["actual"])
                / entry["actual"]
            )
        if self._q is not None:
            metrics.gauge(
                "forecast.over_machine_intervals", **labels
            ).set(self._over_cost.get(key, 0))
            metrics.gauge(
                "forecast.under_machine_intervals", **labels
            ).set(self._under_cost.get(key, 0))

    def errors(self, predictor: str, tau: int) -> Optional[dict]:
        """Rolling-window stats for one ``(predictor, tau)`` (or None)."""
        window = self._windows.get((str(predictor), int(tau)))
        if not window:
            return None
        stats = self._window_stats(window)
        stats["pairs_window"] = len(window)
        stats["pairs_total"] = self._pairs_total.get(
            (str(predictor), int(tau)), 0
        )
        return stats

    # ------------------------------------------------------------------
    # Checkpointing (``pstore serve --resume``)
    # ------------------------------------------------------------------

    #: Every rolling window and all still-pending forecasts (no metrics
    #: state — gauges repopulate on the first harvested pair after a
    #: restore).
    PERSIST = (
        "window", "_q", "_dropped", "_pending", "_windows", "_pairs_total",
        "_over_cost", "_under_cost",
    )

    def _rebuild(self) -> None:
        """The windows come back as plain lists of lists."""
        self._windows = {
            key: deque(map(tuple, pairs), maxlen=self.window)
            for key, pairs in self._windows.items()
        }

    @property
    def pairs_dropped(self) -> int:
        return self._dropped

    @property
    def pending_count(self) -> int:
        return sum(len(v) for v in self._pending.values())

    def snapshot(self) -> List[dict]:
        """One row per (predictor, tau), sorted, with rolling stats."""
        rows: List[dict] = []
        for key in sorted(self._windows):
            predictor, tau = key
            stats = self._window_stats(self._windows[key])
            rows.append(
                {
                    "predictor": predictor,
                    "tau": tau,
                    "pairs_window": len(self._windows[key]),
                    "pairs_total": self._pairs_total.get(key, 0),
                    "over_machine_intervals": self._over_cost.get(key, 0),
                    "under_machine_intervals": self._under_cost.get(key, 0),
                    **stats,
                }
            )
        return rows


class NullAccuracyTracker(Persisted):
    """Tracker that drops everything; shared by disabled telemetry (and
    checkpointed as a component with no fields)."""

    enabled = False
    window = 0
    pairs_dropped = 0
    pending_count = 0

    def configure(self, q: Optional[float] = None) -> None:
        pass

    def record_forecast(self, origin_slot, predicted, inflated=None,
                        predictor="predictor", snapshot_id=None,
                        time=None) -> None:
        pass

    def observe(self, slot, actual, time=None) -> List[dict]:
        return []

    def errors(self, predictor, tau) -> Optional[dict]:
        return None

    def snapshot(self) -> List[dict]:
        return []


NULL_ACCURACY = NullAccuracyTracker()
