"""The central depository: per-node reports -> closed planner intervals.

Monitor surrogates on each node report their observed load
asynchronously; the depository buckets the counts into planner slots and
only releases a slot to the :class:`~repro.hstore.monitor.LoadMonitor`
once the *cluster-wide watermark* — the slowest node's clock — has moved
past it.  That gives the controller the same clean, ordered interval
stream the batch simulators produce, while tolerating out-of-order and
straggling reports.

Reports that arrive for a slot already released are counted as late and
dropped (the alternative, revising closed intervals, would re-open
forecasts the accuracy tracker has already scored).  A late report still
*advances its node's clock*: the node is alive and has seen that
timestamp, so holding its clock back would drag the watermark — and with
it the whole plane — behind a node that is actually current.

Watermark liveness: because the watermark is the *minimum* clock, one
node that stops reporting freezes interval-closing forever.  With
``node_timeout_intervals`` set, a node whose clock falls more than that
many intervals behind the fastest node is evicted from the clock map
(chronicled as ``node.stale``, parented on its last report); if it
reports again later it re-enters the map (``node.recovered``).

Cost: one report costs O(log clocks) amortised, whatever the cluster
size, where *clocks* counts the distinct clock values the nodes hold.
``_at`` maps each live clock to the set of nodes holding it, and one
min-heap holds clock values, not reports.  A clock advance moves its
node from one set to another; only a clock no node held yet is pushed,
so nodes that report on a common heartbeat share one heap entry per
beat.  A value whose set has emptied is dead and is dropped when it
surfaces (lazy deletion).  :meth:`Depository.add` leaves the top value
live, so the watermark is a peek, the fastest clock is a running
maximum (its holder is never stale, so it never has to fall), and the
eviction sweep pops the heap below the horizon and takes those clocks'
node sets instead of scanning the clock map.  The heap and ``_at`` are
derived state: they are not checkpointed, and ``_rebuild`` derives
them from the restored clocks.

``add`` also returns whether the watermark has passed a slot
:meth:`Depository.flush` has not released.  A caller flushes only then,
instead of after every report, and decides exactly the same.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set

from ..errors import SimulationError
from ..hstore.monitor import LoadMonitor
from ..persist import Persisted
from ..telemetry import get_telemetry
from .ingest import LoadReport


class Depository(Persisted):
    """Aggregates :class:`LoadReport` streams into monitor intervals."""

    def __init__(
        self,
        interval_seconds: float,
        monitor: Optional[LoadMonitor] = None,
        telemetry=None,
        node_timeout_intervals: int = 0,
    ) -> None:
        if node_timeout_intervals < 0:
            raise SimulationError("node_timeout_intervals must be >= 0")
        self._telemetry = telemetry if telemetry is not None else get_telemetry()
        self.monitor = (
            monitor
            if monitor is not None
            else LoadMonitor(interval_seconds, telemetry=self._telemetry)
        )
        self._interval = float(interval_seconds)
        #: 0 disables liveness eviction (a frozen watermark is then
        #: possible — the historical behaviour).
        self.node_timeout_intervals = int(node_timeout_intervals)
        self._buffer: Dict[int, float] = {}
        self._clocks: Dict[str, float] = {}
        #: node -> registration sequence number (the insertion order of
        #: ``_clocks``): nodes evicted in one sweep are chronicled in it.
        self._order: Dict[str, int] = {}
        self._registrations = 0
        #: clock -> the nodes holding it; a clock is live iff it is a key.
        self._at: Dict[float, Set[str]] = {}
        #: Lazy-deletion min-heap of clock values; every live clock is on
        #: it (a value that emptied and was taken again may sit there
        #: twice), and the top is kept live, so it is the watermark.
        self._heap: List[float] = []
        self._max_clock = 0.0       # the fastest node's clock
        #: node -> id of its ``node.stale`` chronicle record, kept so a
        #: re-appearing node's ``node.recovered`` can parent on it.
        self._evicted: Dict[str, Optional[str]] = {}
        #: node -> its clock when evicted; checkpointed so a resumed
        #: replay's old reports from it are still duplicates.
        self._evicted_clocks: Dict[str, float] = {}
        #: node -> highest timestamp already ingested before a resume;
        #: replayed reports at or below it are duplicates, not data.
        self._resume_clocks: Dict[str, float] = {}
        self._released = 0          # slots already fed to the monitor
        self.reports_ingested = 0
        self.late_reports = 0
        self.duplicate_reports = 0
        self.evictions = 0
        self.late_by_node: Dict[str, int] = {}

    @property
    def watermark(self) -> float:
        """The slowest reporting node's clock (0 before any report)."""
        heap = self._heap
        return heap[0] if heap else 0.0

    @property
    def nodes(self) -> int:
        return len(self._clocks)

    def add(self, report: LoadReport) -> bool:
        """Buffer one report; intervals close later, at :meth:`flush`.

        Returns True exactly when :meth:`flush` would now close at least
        one interval: the watermark has passed a slot not yet released.
        """
        tel = self._telemetry
        time, count, node = report
        time = float(time)
        interval, released = self._interval, self._released
        resumed = self._resume_clocks
        if node in resumed and time <= resumed[node]:
            # Replay source re-sent a report the pre-crash run already
            # ingested (its count is inside the checkpointed buffer or a
            # closed interval); counting it again would double the load.
            # A node with no resume clock has no duplicates: a negative
            # time is a late report like any other before the watermark.
            self.duplicate_reports += 1
            if tel.enabled:
                tel.metrics.counter("serve.reports_duplicate").inc()
            return int(self.watermark // interval) > released
        slot = int(time // interval)
        if slot < released:
            self.late_reports += 1
            self.late_by_node[node] = self.late_by_node.get(node, 0) + 1
            if tel.enabled:
                tel.metrics.counter("serve.reports_late", node=node).inc()
        else:
            buffer = self._buffer
            buffer[slot] = buffer.get(slot, 0.0) + count
            self.reports_ingested += 1
        # Clock advance happens for late reports too (see module doc),
        # and marks an evicted node as recovered.
        clocks, heap, at = self._clocks, self._heap, self._at
        previous = clocks.get(node)
        if previous is None:
            if node in self._evicted:
                stale_id = self._evicted.pop(node)
                self._evicted_clocks.pop(node, None)
                if tel.enabled:
                    tel.chronicle.record(
                        "node.recovered", time=time, parent=stale_id,
                        node=node,
                    )
            self._order[node] = self._registrations
            self._registrations += 1
            clock = max(0.0, time)
        elif time > previous:
            clock = time
            holders = at[previous]
            holders.discard(node)
            if not holders:
                del at[previous]
        else:
            clock = None        # a repeated or older timestamp
        if clock is not None:
            clocks[node] = clock
            holders = at.get(clock)
            if holders is None:
                at[clock] = {node}
                heapq.heappush(heap, clock)
                if clock > self._max_clock:
                    self._max_clock = clock
                if len(heap) > 2 * len(at) + 64:
                    # Dead values only leave when they surface; under a
                    # frozen watermark they never would.
                    self._rebuild_heap()
                    at, heap = self._at, self._heap
            else:
                holders.add(node)
        if self.node_timeout_intervals > 0:
            horizon = self._max_clock - self.node_timeout_intervals * interval
            if heap[0] < horizon:
                self._evict_stale(horizon)
        # Drop dead values off the top.  The reporting node, or the
        # leader that evicted it, holds a live clock, so the heap cannot
        # run empty.
        top = heap[0]
        while top not in at:
            heapq.heappop(heap)
            top = heap[0]
        return int(top // interval) > released

    def _rebuild_heap(self) -> None:
        """Derive order numbers, clock groups, fastest clock and a heap
        of each live clock once from the clock map, whose insertion
        order *is* the registration order.  Compaction calls it too:
        it drops the dead values and the duplicates of live ones."""
        clocks = self._clocks
        self._order = {node: i for i, node in enumerate(clocks)}
        self._registrations = len(clocks)
        at: Dict[float, Set[str]] = {}
        for node, clock in clocks.items():
            at.setdefault(clock, set()).add(node)
        self._at = at
        self._max_clock = max(at, default=0.0)
        self._heap = list(at)
        heapq.heapify(self._heap)

    def _evict_stale(self, horizon: float) -> None:
        """Drop nodes whose clock trails the leader by > the timeout."""
        heap, at = self._heap, self._at
        clocks, order = self._clocks, self._order
        stale: List[str] = []
        # The leader's clock is never below the horizon, so the heap
        # cannot run empty here; a dead or duplicate value holds nobody.
        while heap[0] < horizon:
            holders = at.pop(heapq.heappop(heap), None)
            if holders:
                stale.extend(holders)
        # Sets have no order: one sweep chronicles in registration order.
        stale.sort(key=order.__getitem__)
        tel = self._telemetry
        for node in stale:
            last_clock = clocks.pop(node)
            del order[node]
            self.evictions += 1
            stale_id = None
            if tel.enabled:
                # Reconstruct the node's final report as a chronicle
                # record so ``node.stale`` has a causal parent even
                # though individual reports are normally not chronicled.
                last_report = tel.chronicle.record(
                    "node.report", time=last_clock, node=node,
                )
                stale_rec = tel.chronicle.record(
                    "node.stale",
                    time=last_clock,
                    parent=last_report,
                    node=node,
                    behind_intervals=self.node_timeout_intervals,
                )
                stale_id = stale_rec.get("id")
                tel.metrics.counter("serve.nodes_evicted").inc()
            self._evicted[node] = stale_id
            self._evicted_clocks[node] = last_clock

    def flush(self) -> int:
        """Release every slot the watermark has passed; returns how many
        intervals the monitor closed."""
        wm_slot = int(self.watermark // self._interval)
        if wm_slot <= self._released:
            return 0
        closed = 0
        for slot in sorted(s for s in self._buffer if s < wm_slot):
            count = self._buffer.pop(slot)
            # Mid-slot timestamp: attributes the count to exactly this
            # interval without touching the next boundary.
            closed += self.monitor.record((slot + 0.5) * self._interval, count)
        # Zero-count record at the watermark boundary closes any empty
        # slots up to it (the monitor batches the gap internally).
        closed += self.monitor.record(wm_slot * self._interval, 0.0)
        self._released = wm_slot
        return closed

    def finish(self) -> int:
        """Drain everything buffered at stream end (no more watermarks)."""
        if not self._buffer:
            return 0
        last = max(self._buffer)
        closed = 0
        for slot in sorted(self._buffer):
            closed += self.monitor.record(
                (slot + 0.5) * self._interval, self._buffer[slot]
            )
        self._buffer.clear()
        closed += self.monitor.record((last + 1) * self._interval, 0.0)
        self._released = last + 1
        return closed

    # ------------------------------------------------------------------
    # Checkpointing (``pstore serve --resume``)
    # ------------------------------------------------------------------

    PERSIST_MATCH = ("_interval",)
    #: ``_clocks`` keeps its insertion order through the checkpoint: it
    #: is the registration order, which decides the order one sweep's
    #: evictions are chronicled in.
    PERSIST = (
        "_buffer", "_clocks", "_evicted", "_evicted_clocks", "_released",
        "reports_ingested", "late_reports", "duplicate_reports", "evictions",
        "late_by_node",
    )

    def _rebuild(self) -> None:
        """Arm duplicate suppression and rebuild the clock groups and
        their heap: every node's restored clock — an evicted node's last
        one included — becomes its *resume clock*, and replayed reports
        at or below it are dropped as duplicates (reports are assumed
        monotone per node, which every source in this package
        satisfies)."""
        self._resume_clocks = {**self._evicted_clocks, **self._clocks}
        self._rebuild_heap()
