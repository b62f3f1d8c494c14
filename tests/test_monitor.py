"""Tests for aggregate-load monitoring."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.hstore import LoadMonitor


def _counting_telemetry():
    """A live bundle whose accuracy tracker also lists its harvests."""
    from repro.telemetry import Telemetry

    tel = Telemetry()
    harvested = []
    observe = tel.accuracy.observe

    def spy(slot, actual, time=None):
        harvested.append((slot, actual, time))
        return observe(slot, actual, time=time)

    tel.accuracy.observe = spy
    return tel, harvested


class TestLoadMonitor:
    def test_aggregates_into_intervals(self):
        monitor = LoadMonitor(interval_seconds=10.0)
        for t in np.arange(0.0, 25.0, 0.5):  # 2 txns per second
            monitor.record(float(t))
        history = monitor.history_tps()
        assert history.shape == (2,)
        assert history[0] == pytest.approx(2.0)
        assert history[1] == pytest.approx(2.0)

    def test_empty_intervals_emitted_as_zero(self):
        monitor = LoadMonitor(interval_seconds=10.0)
        monitor.record(1.0)
        closed = monitor.record(35.0)
        assert closed == 3
        history = monitor.history_tps()
        assert history[0] == pytest.approx(0.1)
        assert history[1] == 0.0
        assert history[2] == 0.0

    def test_batched_counts(self):
        monitor = LoadMonitor(interval_seconds=60.0)
        monitor.record(5.0, count=120.0)
        monitor.record(61.0)
        assert monitor.history_tps()[0] == pytest.approx(2.0)

    def test_time_going_backwards_rejected(self):
        monitor = LoadMonitor(interval_seconds=10.0)
        monitor.record(100.0)       # the open interval now starts at 100
        with pytest.raises(SimulationError):
            monitor.record(50.0)

    def test_invalid_interval(self):
        with pytest.raises(SimulationError):
            LoadMonitor(interval_seconds=0.0)

    def test_negative_count_rejected(self):
        monitor = LoadMonitor(interval_seconds=10.0)
        with pytest.raises(SimulationError):
            monitor.record(1.0, count=-1.0)


class TestLoadMonitorBoundaries:
    def test_single_record_crosses_many_intervals(self):
        monitor = LoadMonitor(interval_seconds=10.0)
        monitor.record(2.0, count=40.0)
        closed = monitor.record(47.0, count=5.0)
        assert closed == 4
        history = monitor.history_tps()
        assert history.shape == (4,)
        # All 40 txns land in the interval containing t=2; the next three
        # intervals were empty; the trailing 5 are still in the open one.
        assert history[0] == pytest.approx(4.0)
        assert np.all(history[1:] == 0.0)
        assert monitor._current_count == 5.0
        assert monitor._interval_start == 40.0

    def test_boundary_timestamp_opens_next_interval(self):
        monitor = LoadMonitor(interval_seconds=10.0)
        monitor.record(0.0, count=10.0)
        closed = monitor.record(10.0, count=7.0)  # exactly on the boundary
        assert closed == 1
        assert monitor.history_tps()[0] == pytest.approx(1.0)
        # The boundary count belongs to the new interval, not the closed one.
        assert monitor._current_count == 7.0
        assert monitor._interval_start == 10.0

    def test_closed_intervals_emit_telemetry(self):
        tel, harvested = _counting_telemetry()
        monitor = LoadMonitor(interval_seconds=10.0, telemetry=tel)
        monitor.record(1.0, count=20.0)
        assert monitor.record(35.0) == 3
        # Every closed interval, the empty ones included, is harvested
        # at its own closing boundary ...
        assert harvested == [(0, 2.0, 10.0), (1, 0.0, 20.0), (2, 0.0, 30.0)]
        assert tel.metrics.counter("monitor.intervals_closed").value == 3
        assert tel.metrics.gauge("monitor.load_tps").value == 0.0
        # ... and the monitor writes no series: that is its host's span.
        assert tel.tracer.spans == [] and len(tel.chronicle) == 0

    def test_large_gap_closes_every_interval_and_writes_no_series(self):
        tel, harvested = _counting_telemetry()
        monitor = LoadMonitor(interval_seconds=1.0, telemetry=tel)
        monitor.record(0.5)
        closed = monitor.record(100_000.5)
        assert closed == 100_000
        assert monitor.completed_intervals == 100_000
        assert [slot for slot, _, _ in harvested] == list(range(100_000))
        assert tel.metrics.counter("monitor.intervals_closed").value == 100_000
        assert tel.tracer.spans == [] and len(tel.chronicle) == 0

    def test_host_writes_one_interval_span_per_closed_slot(self):
        # The span is the host loop's: the serve plane's depository
        # releases one counted and two empty slots to the monitor in one
        # flush, and the plane hands each to the controller, which writes
        # its span.
        from repro.config import default_config
        from repro.prediction import LastValuePredictor, OnlinePredictor
        from repro.serve import ControlPlane, LoadReport, ServeOptions
        from repro.telemetry import Telemetry

        tel = Telemetry()
        still_learning = OnlinePredictor(
            LastValuePredictor(), refit_every=1, min_training=99
        )
        plane = ControlPlane(
            default_config().with_interval(10.0), still_learning, source=None,
            options=ServeOptions(out=None, quiet=True), telemetry=tel,
        )
        depository = plane.depository
        assert not depository.add(LoadReport(1.0, 20.0, "n0"))
        assert depository.add(LoadReport(35.0, 0.0, "n0"))
        assert depository.flush() == 3
        plane._dispatch()
        spans = tel.tracer.by_name("interval")
        assert [(s.start, s.end, s.clock) for s in spans] == [
            (0.0, 10.0, "sim"), (10.0, 20.0, "sim"), (20.0, 30.0, "sim"),
        ]
        assert [s.attrs for s in spans] == [
            {"slot": slot, "tps": tps, "machines": plane.controller.machines,
             "migrating": False}
            for slot, tps in enumerate([2.0, 0.0, 0.0])
        ]

    def test_no_float_drift_over_long_runs(self):
        # Regression: `_interval_start += 0.1` accumulated one rounding
        # error per interval, so boundaries slowly walked off the grid.
        interval = 0.1
        monitor = LoadMonitor(interval_seconds=interval)
        n = 50_000
        for k in range(1, n + 1):
            monitor.record(k * interval)  # every record sits on a boundary
        assert monitor.completed_intervals == n
        assert monitor._interval_start == n * interval
        # Each boundary record opens the next interval: one count each.
        assert np.all(monitor.history_tps()[1:] == pytest.approx(1.0 / interval))
