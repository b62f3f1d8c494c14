"""Differential test: the heap-backed depository against the scan it replaced.

``ScanDepository`` is the depository as it was before the lazy-deletion
heap: ``watermark`` is a ``min()`` over every node clock, and every
report runs an eviction pass that takes a ``max()`` and scans the whole
clock map.  O(nodes) per report, and obviously right — which is what a
reference is for.  Hypothesis drives both with the same report sequence
(out of order, duplicate timestamps, late, silence -> eviction ->
recovery, a checkpoint round trip anywhere in the sequence) and every
observable must agree after every step, while the depository's clock
groups keep their invariants (``_assert_clock_groups``).

The oracle is flushed after every report.  The depository under test is
flushed the way the plane flushes it — only when ``add`` returns True —
and ``add`` must return True exactly when the oracle's flush closes an
interval.
"""

import json
import pathlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import Depository
from repro.serve.ingest import LoadReport
from repro.telemetry import MetricsRegistry, Telemetry

INTERVAL = 60.0
NODES = ["a", "b", "c", "d", "e"]
V1_FIXTURE = pathlib.Path(__file__).parent / "data" / "serve-checkpoint-v1"


class ScanDepository(Depository):
    """Reference oracle: the pre-heap O(nodes)-per-report logic.

    Its ``add`` returns nothing: what it would have to say is whatever
    the following ``flush`` does.
    """

    @property
    def watermark(self) -> float:
        return min(self._clocks.values()) if self._clocks else 0.0

    def add(self, report: LoadReport) -> None:
        tel = self._telemetry
        time = float(report.time)
        node = report.node
        if node in self._resume_clocks and time <= self._resume_clocks[node]:
            self.duplicate_reports += 1
            if tel.enabled:
                tel.metrics.counter("serve.reports_duplicate").inc()
            return
        slot = int(time // self._interval)
        late = slot < self._released
        if late:
            self.late_reports += 1
            self.late_by_node[node] = self.late_by_node.get(node, 0) + 1
            if tel.enabled:
                tel.metrics.counter("serve.reports_late", node=node).inc()
        else:
            self._buffer[slot] = self._buffer.get(slot, 0.0) + report.count
            self.reports_ingested += 1
        previous = self._clocks.get(node)
        if previous is None and node in self._evicted:
            stale_id = self._evicted.pop(node)
            self._evicted_clocks.pop(node, None)
            if tel.enabled:
                tel.chronicle.record(
                    "node.recovered", time=time, parent=stale_id, node=node,
                )
        self._clocks[node] = max(previous or 0.0, time)
        self._scan_for_stale()

    def _scan_for_stale(self) -> None:
        if self.node_timeout_intervals <= 0 or len(self._clocks) < 2:
            return
        horizon = (
            max(self._clocks.values())
            - self.node_timeout_intervals * self._interval
        )
        stale = [n for n, clock in self._clocks.items() if clock < horizon]
        tel = self._telemetry
        for node in stale:
            last_clock = self._clocks.pop(node)
            self.evictions += 1
            stale_id = None
            if tel.enabled:
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


def _observables(dep: Depository, tel: Telemetry) -> dict:
    return {
        "watermark": dep.watermark,
        "nodes": dep.nodes,
        # Registration order is what orders one sweep's evictions.
        "clocks": list(dep._clocks.items()),
        "evictions": dep.evictions,
        "released": dep._released,
        "closed": dep.monitor.completed_intervals,
        "history": list(dep.monitor.history_tps()),
        "ingested": dep.reports_ingested,
        "late": dep.late_reports,
        "late_by_node": dep.late_by_node,
        "duplicates": dep.duplicate_reports,
        "chronicle": [
            (r["kind"], r["node"], r["time"], r.get("parent"))
            for r in tel.chronicle.records
        ],
        "state": json.dumps(dep.state_dict(), sort_keys=True),
    }


# Quarter-interval timestamps over eleven slots, in any order: draws are
# out of order, repeat timestamps, land in released slots, and leave
# nodes silent long enough to be evicted and to come back.
report_step = st.tuples(
    st.sampled_from(NODES),
    st.integers(min_value=0, max_value=44),
    st.integers(min_value=0, max_value=9),
)
steps = st.lists(
    st.one_of(report_step, st.just("checkpoint")), min_size=1, max_size=80
)


class Pair:
    """The depository under test and the oracle, stepped in lockstep."""

    def __init__(self, timeout: int) -> None:
        self.timeout = timeout
        self.tels = [Telemetry(metrics=MetricsRegistry()) for _ in range(2)]
        self.deps = [
            cls(INTERVAL, telemetry=tel, node_timeout_intervals=timeout)
            for cls, tel in zip((Depository, ScanDepository), self.tels)
        ]

    def report(self, node: str, quarter: int, count: int) -> None:
        self.send(LoadReport(
            time=quarter * INTERVAL / 4, count=float(count), node=node
        ))

    def send(self, report: LoadReport) -> None:
        heap, scan = self.deps
        closable = heap.add(report)
        scan.add(report)
        closed = scan.flush()
        assert closable is (closed >= 1)
        if closable:
            assert heap.flush() == closed

    def checkpoint(self) -> None:
        """state_dict -> JSON -> restore_state into fresh depositories,
        the way ``--resume`` does (sorted keys and all)."""
        fresh = []
        for dep, tel in zip(self.deps, self.tels):
            doc = json.loads(json.dumps(dep.state_dict(), sort_keys=True))
            restored = type(dep)(
                INTERVAL,
                monitor=dep.monitor,
                telemetry=tel,
                node_timeout_intervals=self.timeout,
            )
            restored.restore_state(doc)
            fresh.append(restored)
        self.deps = fresh

    def check(self) -> None:
        got, want = (
            _observables(dep, tel) for dep, tel in zip(self.deps, self.tels)
        )
        assert got == want
        _assert_clock_groups(self.deps[0])


def _assert_clock_groups(dep: Depository) -> None:
    """The derived structure's invariants: ``_at`` is exactly the
    inverse of the clock map, the heap's top is live, and every live
    clock is on the heap."""
    inverse = {}
    for node, clock in dep._clocks.items():
        inverse.setdefault(clock, set()).add(node)
    assert dep._at == inverse
    if dep._heap:
        assert dep._heap[0] in dep._at
    assert set(dep._at) <= set(dep._heap)


class TestHeapAgainstScan:
    @given(steps=steps, timeout=st.sampled_from([0, 1, 3]))
    @settings(max_examples=300, deadline=None)
    def test_step_for_step(self, steps, timeout):
        pair = Pair(timeout)
        for step in steps:
            if step == "checkpoint":
                pair.checkpoint()
            else:
                pair.report(*step)
            pair.check()
        finished = [dep.finish() for dep in pair.deps]
        assert finished[0] == finished[1]
        pair.check()

    def test_one_sweep_evicts_in_registration_order(self):
        # The heap pops c (clock 15) before b (clock 45); the chronicle
        # must still list b first, because b registered first.
        pair = Pair(timeout=2)
        pair.report("a", 1, 1)   # t=15
        pair.report("b", 2, 1)   # t=30
        pair.report("c", 1, 1)   # t=15
        pair.report("b", 3, 1)   # t=45
        pair.check()
        pair.report("a", 40, 1)  # horizon jumps past b and c at once
        pair.check()
        stale = [
            r["node"] for r in pair.tels[0].chronicle.records
            if r["kind"] == "node.stale"
        ]
        assert stale == ["b", "c"]

    def test_late_joiner_below_the_horizon_is_evicted_at_once(self):
        # No clock advanced past anything here: the newcomer arrives
        # already stale, so the sweep cannot wait for the leader to move.
        pair = Pair(timeout=1)
        pair.report("a", 40, 1)
        pair.report("b", 1, 1)
        pair.check()
        assert pair.deps[0].nodes == 1
        assert pair.deps[0].evictions == 1

    def test_a_duplicate_still_says_a_slot_is_closable(self):
        # A document cut between add and flush: the watermark is past a
        # slot not yet released, and the replayed duplicate that follows
        # the resume must say so, or nothing flushes until a fresh report.
        dep = Depository(INTERVAL)
        dep.add(LoadReport(time=30.0, count=4.0, node="a"))
        assert dep.add(LoadReport(time=90.0, count=1.0, node="a"))
        restored = Depository(INTERVAL)
        restored.restore_state(
            json.loads(json.dumps(dep.state_dict(), sort_keys=True))
        )
        assert restored.add(LoadReport(time=90.0, count=1.0, node="a"))
        assert restored.duplicate_reports == 1
        assert restored.flush() == 1
        assert list(restored.monitor.history_tps()) == [4.0 / INTERVAL]

    def test_dead_heap_entries_stay_bounded_under_a_frozen_watermark(self):
        # timeout=0 and a silent node: the watermark never moves, so no
        # dead clock ever surfaces; compaction has to bound the heap by
        # the distinct clocks, two here, however many reports arrive.
        dep = Depository(INTERVAL)
        dep.add(LoadReport(time=1.0, count=1.0, node="silent"))
        for tick in range(5000):
            dep.add(LoadReport(time=2.0 + tick, count=1.0, node="busy"))
            dep.flush()
        assert dep.watermark == 1.0
        assert len(dep._at) == 2
        assert len(dep._heap) <= 2 * len(dep._at) + 65
        _assert_clock_groups(dep)

    def test_an_emptied_clock_taken_again_is_pushed_again(self):
        # b leaves 30 while a holds the watermark at 15, so the dead 30
        # stays below the top; c then takes 30 and pushes it a second
        # time.  Both copies must go when 30 is evicted or surfaces.
        pair = Pair(timeout=1)
        pair.report("a", 1, 1)   # t=15
        pair.report("b", 2, 1)   # t=30
        pair.report("b", 3, 1)   # t=45: 30 empties, its value stays
        pair.report("c", 2, 1)   # t=30 again
        pair.check()
        dep = pair.deps[0]
        assert dep._heap.count(30.0) == 2
        assert dep._at[30.0] == {"c"}
        pair.report("a", 4, 1)   # t=60: the watermark moves to c's 30
        pair.check()
        assert dep.watermark == 30.0
        pair.report("a", 27, 1)  # t=405: one sweep evicts b and c
        pair.check()
        assert 30.0 not in dep._heap
        stale = [
            r["node"] for r in pair.tels[0].chronicle.records
            if r["kind"] == "node.stale"
        ]
        assert stale == ["b", "c"]
        pair.report("c", 28, 1)  # t=420: c recovers at a fresh clock
        pair.check()
        assert dep._at == {405.0: {"a"}, 420.0: {"c"}}

    def test_a_first_report_before_zero_starts_its_clock_at_zero(self):
        # On a run that never resumed no report is a duplicate: one
        # before zero, by a fraction of a second or by 30 s, is late (slot
        # -1) and its node's clock starts at 0.
        pair = Pair(timeout=1)
        pair.send(LoadReport(time=-0.5, count=1.0, node="a"))
        pair.send(LoadReport(time=-0.25, count=1.0, node="b"))
        pair.send(LoadReport(time=-30.0, count=1.0, node="c"))
        pair.check()
        dep = pair.deps[0]
        assert dep._at == {0.0: {"a", "b", "c"}}
        assert (dep.late_reports, dep.duplicate_reports) == (3, 0)

    def test_offset_and_jittered_fan_in_steps_with_the_scan(self):
        # 64 nodes on a half-interval heartbeat: a third in step, a
        # third evenly offset, a third jittered.  Some fall silent long
        # enough to be evicted and come back; one keeps re-joining with
        # a clock far behind the horizon and is evicted every time.
        rng = random.Random(5001)
        nodes = [f"n{i:02d}" for i in range(64)]
        rng.shuffle(nodes)       # registration order is not name order
        beat = INTERVAL / 2

        def offset(i: int) -> float:
            if i % 3 == 0:
                return beat / 2
            if i % 3 == 1:
                return beat * (i / 64)
            return rng.uniform(0.0, beat)

        silent = {nodes[5]: range(8, 20), nodes[17]: range(10, 14),
                  nodes[40]: range(12, 30)}
        laggard = nodes[63]
        pair = Pair(timeout=2)
        for k in range(40):
            if k == 25:
                pair.checkpoint()
            for i in rng.sample(range(64), 64):
                node = nodes[i]
                if k in silent.get(node, ()):
                    continue
                if node == laggard and k > 4:
                    time = 10.0 + k     # behind the horizon from k = 8 on
                else:
                    time = k * beat + offset(i)
                pair.send(LoadReport(
                    time=time, count=float(rng.randint(0, 9)), node=node,
                ))
                pair.check()
        dep = pair.deps[0]
        assert dep.evictions >= 3 + 32          # the silent trio, the laggard
        assert len(dep._at) < dep.nodes
        kinds = [r["kind"] for r in pair.tels[0].chronicle.records]
        assert kinds.count("node.recovered") >= 3
        finished = [d.finish() for d in pair.deps]
        assert finished[0] == finished[1]
        pair.check()


# ----------------------------------------------------------------------
# Resume convergence: a lane that is never checkpointed
# ----------------------------------------------------------------------
#
# Above, implementation and oracle *both* go through the checkpoint, so
# what the checkpoint form itself loses is invisible.  Here one run is
# cut, restored from its sort_keys JSON and fed the whole stream again
# (what a replay source does after ``--resume``); it must end where the
# run that was never interrupted ends.

#: Registration order below is deliberately not alphabetical.
RESUME_NODES = ["zeta", "alpha", "lead", "mid", "beta"]


def _run_stream(reports, cut=None, timeout=3) -> dict:
    tel = Telemetry(metrics=MetricsRegistry())
    dep = Depository(INTERVAL, telemetry=tel, node_timeout_intervals=timeout)
    if cut is not None:
        for report in reports[:cut]:
            if dep.add(report):
                dep.flush()
        doc = json.loads(json.dumps(dep.state_dict(), sort_keys=True))
        dep = Depository(
            INTERVAL, monitor=dep.monitor, telemetry=tel,
            node_timeout_intervals=timeout,
        )
        dep.restore_state(doc)
    for report in reports:
        if dep.add(report):
            dep.flush()
    seen = _observables(dep, tel)
    # The replayed prefix is, rightly, all duplicates (and the state
    # document counts them).
    assert seen.pop("duplicates") == (cut or 0)
    del seen["state"]
    return seen


def _report(node: str, time: float, count: float = 1.0) -> LoadReport:
    return LoadReport(time=time, count=count, node=node)


# Per node strictly increasing timestamps (the monotonicity every source
# in the package guarantees), interleaved across nodes in any order.
monotone_steps = st.lists(
    st.tuples(
        st.sampled_from(RESUME_NODES),
        st.integers(min_value=1, max_value=12),   # quarter-intervals ahead
        st.integers(min_value=0, max_value=9),
    ),
    min_size=1, max_size=60,
)


class TestResumeConverges:
    def test_registration_order_survives_sorted_keys(self):
        reports = [
            _report("zeta", 10.0), _report("alpha", 10.0),
            _report("lead", 10.0), _report("lead", 1000.0),
        ]
        straight = _run_stream(reports)
        stale = [n for k, n, _, _ in straight["chronicle"] if k == "node.stale"]
        assert stale == ["zeta", "alpha"]
        assert _run_stream(reports, cut=3) == straight

    def test_node_evicted_at_the_cut_stays_suppressed(self):
        reports = [
            _report("slow", 10.0), _report("lead", 10.0),
            _report("slow", 20.0), _report("lead", 1000.0),
            _report("lead", 1100.0),
        ]
        straight = _run_stream(reports)
        assert straight["evictions"] == 1 and straight["late"] == 0
        # Cut after the eviction: slow has no clock in the checkpoint.
        assert _run_stream(reports, cut=4) == straight

    def test_checkpoint_with_a_clock_mapping_still_loads(self):
        """The oldest v1 shape — ``clocks`` a mapping, no
        ``evicted_clocks`` — goes through the one upgrade function."""
        from repro.persist import upgrade_v1

        doc = json.loads((V1_FIXTURE / "checkpoint.json").read_text())
        doc["depository"]["interval_seconds"] = INTERVAL
        doc["depository"]["clocks"] = {"b": 10.0, "a": 20.0}
        del doc["depository"]["evicted_clocks"]
        doc = json.loads(json.dumps(doc, sort_keys=True))
        old = Depository(INTERVAL, node_timeout_intervals=3)
        old.restore_state(upgrade_v1(doc)["depository"])
        assert old._clocks == {"a": 20.0, "b": 10.0}
        assert old._resume_clocks == old._clocks
        assert old.watermark == 10.0

    @given(
        steps=monotone_steps,
        cut=st.integers(min_value=0, max_value=60),
        timeout=st.sampled_from([0, 1, 3]),
    )
    @settings(max_examples=300, deadline=None)
    def test_cut_anywhere(self, steps, cut, timeout):
        clocks = dict.fromkeys(RESUME_NODES, 0)
        reports = []
        for node, ahead, count in steps:
            clocks[node] += ahead
            reports.append(
                _report(node, clocks[node] * INTERVAL / 4, float(count))
            )
        cut = min(cut, len(reports))
        assert _run_stream(reports, cut, timeout) == _run_stream(
            reports, None, timeout
        )
