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

from ..errors import SimulationError
from ..persist import Persisted, Series

#: Default rolling-window size per (predictor, tau): one day of
#: 5-minute intervals.
DEFAULT_WINDOW = 288

#: Percent-error histogram bucket edges (0.1% .. ~1000%).
ERROR_PCT_BOUNDS = tuple(0.1 * (10 ** 0.25) ** i for i in range(17))



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
        #: (predictor, tau) -> its pairs, at most ``window`` of them.
        self._windows: Dict[Tuple[str, int], Series] = {}
        #: (predictor, tau) -> the window's error terms (derived state).
        self._terms: Dict[Tuple[str, int], _Terms] = {}
        #: (predictor, tau) -> its instruments in ``metrics``.
        self._published: Dict[Tuple[str, int], _Published] = {}
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
        pair = (entry["predicted"], entry["inflated"], entry["actual"])
        window = self._windows.get(key)
        if window is None:
            window = Series(maxlen=self.window)
            self._windows[key] = window
            terms = self._terms[key] = _Terms()
        else:
            terms = self._terms[key]
            if len(window) == self.window:
                terms.evict(*window[0])
        window.append(pair)
        terms.add(*pair)
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

    def _publish(self, key: Tuple[str, int], entry: dict) -> None:
        if self._metrics is None:
            return
        published = self._published.get(key)
        if published is None:
            published = _Published(self._metrics, key)
            self._published[key] = published
        published.pairs.inc()
        for name, value in self._terms[key].stats().items():
            if value is not None:
                published.gauge(name).set(value)
        actual = entry["actual"]
        if actual > 0:
            published.abs_pct_error().observe(
                100.0 * abs(entry["predicted"] - actual) / actual
            )
        if self._q is not None:
            published.gauge("over_machine_intervals").set(
                self._over_cost.get(key, 0)
            )
            published.gauge("under_machine_intervals").set(
                self._under_cost.get(key, 0)
            )

    def errors(self, predictor: str, tau: int) -> Optional[dict]:
        """Rolling-window stats for one ``(predictor, tau)`` (or None)."""
        key = (str(predictor), int(tau))
        window = self._windows.get(key)
        if not window:
            return None
        stats = self._terms[key].stats()
        stats["pairs_window"] = len(window)
        stats["pairs_total"] = self._pairs_total.get(key, 0)
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
        """The windows come back as plain lists of lists; their error
        terms are recomputed from them."""
        try:
            self._windows = {
                key: Series(map(tuple, pairs), maxlen=self.window)
                for key, pairs in self._windows.items()
            }
            self._terms = {
                key: _Terms(window) for key, window in self._windows.items()
            }
        except (TypeError, ValueError):
            raise SimulationError(
                "windows: a pair is not [predicted, inflated or null, "
                "actual] numbers"
            ) from None

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
            stats = self._terms[key].stats()
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


class _Terms:
    """One window's error terms, each in its own deque in window order:
    ape and signed bias of the pairs with ``actual > 0``, sape of those
    with ``|p| + |a| > 0``, a covered flag for those with an inflated
    forecast.  A pair's terms are computed once, when it enters; the
    stats are C-level sums over the same terms in the same order a walk
    over the window would take, so they are the same floats."""

    __slots__ = ("ape", "bias", "sape", "covered")

    def __init__(self, pairs=()) -> None:
        self.ape: Deque[float] = deque()
        self.bias: Deque[float] = deque()
        self.sape: Deque[float] = deque()
        self.covered: Deque[bool] = deque()
        for pair in pairs:
            self.add(*pair)

    def add(self, predicted, inflated, actual) -> None:
        if actual > 0:
            self.ape.append(abs(predicted - actual) / actual)
            self.bias.append((predicted - actual) / actual)
        denom = abs(predicted) + abs(actual)
        if denom > 0:
            self.sape.append(2.0 * abs(predicted - actual) / denom)
        if inflated is not None:
            self.covered.append(actual <= inflated)

    def evict(self, predicted, inflated, actual) -> None:
        """Drop the window's oldest pair, which is ``(predicted,
        inflated, actual)``, from the deques it added to."""
        if actual > 0:
            self.ape.popleft()
            self.bias.popleft()
        if abs(predicted) + abs(actual) > 0:
            self.sape.popleft()
        if inflated is not None:
            self.covered.popleft()

    def stats(self) -> dict:
        """MAPE / sMAPE / signed bias / coverage over the window."""
        ape, sape, bias, covered = self.ape, self.sape, self.bias, self.covered
        return {
            "mape_pct": 100.0 * sum(ape) / len(ape) if ape else None,
            "smape_pct": 100.0 * sum(sape) / len(sape) if sape else None,
            "bias_pct": 100.0 * sum(bias) / len(bias) if bias else None,
            "coverage_pct": (
                100.0 * sum(covered) / len(covered) if covered else None
            ),
        }


class _Published:
    """One ``(predictor, tau)``'s instruments, each looked up in the
    registry the first time it is needed and held from then on."""

    __slots__ = ("_metrics", "_labels", "_gauges", "_histogram", "pairs")

    def __init__(self, metrics, key: Tuple[str, int]) -> None:
        self._metrics = metrics
        self._labels = {"predictor": key[0], "tau": str(key[1])}
        self._gauges: dict = {}
        self._histogram = None
        self.pairs = metrics.counter("forecast.pairs", **self._labels)

    def gauge(self, name: str):
        """The ``forecast.<name>`` gauge."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._metrics.gauge(f"forecast.{name}", **self._labels)
            self._gauges[name] = gauge
        return gauge

    def abs_pct_error(self):
        if self._histogram is None:
            self._histogram = self._metrics.histogram(
                "forecast.abs_pct_error", bounds=ERROR_PCT_BOUNDS,
                **self._labels,
            )
        return self._histogram


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
