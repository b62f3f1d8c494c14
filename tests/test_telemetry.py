"""Tests for the telemetry package: instruments, spans, exporters, CLI artifact schemas, and the no-op overhead bound."""

import json
import math
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import TelemetryError
from repro.hstore import (
    Cluster,
    Column,
    Schema,
    StoredProcedure,
    Table,
    Transaction,
    TransactionExecutor,
)
from repro.telemetry import (
    CHRONICLE_SCHEMA,
    METRICS_SCHEMA,
    NULL_TELEMETRY,
    SPANS_SCHEMA,
    MetricsRegistry,
    NullRegistry,
    SpanRecorder,
    Telemetry,
    default_buckets,
    disable_telemetry,
    enable_telemetry,
    export_run,
    forecast_mape,
    forecast_vs_actual,
    get_telemetry,
    render_dashboard,
    telemetry_scope,
)
from repro.telemetry.causal import record_interval
from repro.telemetry.metrics import BUCKET_HI, BUCKET_LO


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


class TestCounterGauge:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("txns", status="committed")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.counter("txns", status="committed") is counter

    def test_counter_rejects_negative(self):
        with pytest.raises(TelemetryError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_set_and_add(self):
        gauge = MetricsRegistry().gauge("machines")
        gauge.set(4)
        gauge.add(2)
        assert gauge.value == 6

    def test_labels_fan_out(self):
        registry = MetricsRegistry()
        registry.counter("txns", status="committed").inc()
        registry.counter("txns", status="aborted").inc(2)
        snaps = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in registry.snapshot()
        }
        assert snaps[(("status", "committed"),)] == 1
        assert snaps[(("status", "aborted"),)] == 2

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TelemetryError):
            registry.gauge("x")


class TestHistogram:
    def test_quantiles_of_uniform_stream(self):
        hist = MetricsRegistry().histogram("lat")
        for i in range(1, 1001):
            hist.observe(i / 10.0)  # 0.1 .. 100.0 ms, uniform
        # Log-bucket interpolation is coarse; allow 35% relative error.
        assert hist.quantile(0.50) == pytest.approx(50.0, rel=0.35)
        assert hist.quantile(0.99) == pytest.approx(99.0, rel=0.35)
        assert hist.count == 1000
        assert hist.min == pytest.approx(0.1)
        assert hist.max == pytest.approx(100.0)

    def test_quantile_clamped_to_observed_range(self):
        hist = MetricsRegistry().histogram("lat")
        hist.observe(7.0)
        assert hist.quantile(0.0) == 7.0
        assert hist.quantile(1.0) == 7.0

    def test_empty_histogram(self):
        hist = MetricsRegistry().histogram("lat")
        assert hist.quantile(0.5) == 0.0
        snap = hist.snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None

    def test_invalid_quantile(self):
        with pytest.raises(TelemetryError):
            MetricsRegistry().histogram("lat").quantile(1.5)

    def test_custom_bounds_and_overflow(self):
        hist = MetricsRegistry().histogram("d", bounds=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(100.0)  # overflow bucket
        buckets = hist.snapshot()["buckets"]
        assert buckets[-1]["le"] is None
        assert buckets[-1]["count"] == 1

    def test_default_buckets_are_increasing(self):
        edges = default_buckets()
        assert all(b > a for a, b in zip(edges, edges[1:]))
        assert edges[0] == pytest.approx(0.1)
        assert edges[-1] == pytest.approx(600_000.0)

    def test_memory_is_bounded(self):
        hist = MetricsRegistry().histogram("lat")
        for _ in range(10_000):
            hist.observe(3.0)
        assert len(hist._counts) == len(hist.bounds) + 1


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _histogram_state(hist) -> tuple:
    """Every stored field, floats as raw bits (NaN and -0.0 included)."""
    return (
        hist.count, _bits(hist.sum), _bits(hist.min), _bits(hist.max),
        tuple(hist._counts),
    )


_EDGES = default_buckets()
#: Values a bulk call must bucket exactly as ``observe`` does: every edge
#: and its float neighbours, both ends of the range and past them, NaN,
#: the infinities and both zeros.
_SPECIAL = (
    [edge for edge in _EDGES]
    + [math.nextafter(edge, -math.inf) for edge in _EDGES]
    + [math.nextafter(edge, math.inf) for edge in _EDGES]
    + [BUCKET_LO / 10, BUCKET_HI * 10, math.nan, math.inf, -math.inf,
       0.0, -0.0, -5.0]
)
_VALUES = st.lists(
    st.one_of(
        st.sampled_from(_SPECIAL),
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(min_value=1e-3, max_value=1e7),
    ),
    max_size=60,
)


class TestBulkInstruments:
    """``observe_many`` / ``inc_many`` are a loop of single calls, bit
    for bit: the engine and simulator feed them once per block."""

    @settings(max_examples=300, deadline=None)
    @given(before=_VALUES, block=_VALUES)
    def test_observe_many_is_a_loop_of_observe(self, before, block):
        looped = MetricsRegistry().histogram("h")
        bulk = MetricsRegistry().histogram("h")
        for value in before:
            looped.observe(value)
            bulk.observe(value)
        for value in block:
            looped.observe(value)
        bulk.observe_many(np.array(block, dtype=float))
        assert _histogram_state(bulk) == _histogram_state(looped)

    @pytest.mark.parametrize("values", [
        [], [math.nan], [math.nan, math.nan], [0.0, -0.0], [-0.0, 0.0],
        [math.inf, -math.inf], [BUCKET_LO, BUCKET_HI], [1e-9, 1e9],
        [True, False, 3],
    ])
    def test_observe_many_edge_cases(self, values):
        looped = MetricsRegistry().histogram("h")
        for value in values:
            looped.observe(value)
        bulk = MetricsRegistry().histogram("h")
        bulk.observe_many(values)
        assert _histogram_state(bulk) == _histogram_state(looped)

    def test_nan_lands_in_overflow_and_leaves_min_max(self):
        hist = MetricsRegistry().histogram("h")
        hist.observe_many([2.0, math.nan])
        assert hist._counts[-1] == 1
        assert (hist.min, hist.max) == (2.0, 2.0)

    @settings(max_examples=200, deadline=None)
    @given(
        start=st.floats(min_value=0.0, max_value=1e12),
        amounts=st.lists(
            st.floats(min_value=0.0, max_value=1e12), max_size=60
        ),
    )
    def test_inc_many_is_a_loop_of_inc(self, start, amounts):
        looped = MetricsRegistry().counter("c")
        bulk = MetricsRegistry().counter("c")
        looped.inc(start)
        bulk.inc(start)
        for amount in amounts:
            looped.inc(amount)
        bulk.inc_many(np.array(amounts, dtype=float))
        assert _bits(bulk.value) == _bits(looped.value)

    def test_inc_many_rejects_a_negative_before_adding_anything(self):
        """Unlike a loop of ``inc``, which would add 1 and 2 before
        raising on -3, the bulk call checks first: the count stays."""
        counter = MetricsRegistry().counter("c")
        counter.inc(5.0)
        with pytest.raises(TelemetryError):
            counter.inc_many([1.0, 2.0, -3.0, 4.0])
        assert counter.value == 5.0

    def test_null_twins_accept_bulk_calls(self):
        NULL_TELEMETRY.metrics.histogram("h").observe_many([1.0, 2.0])
        NULL_TELEMETRY.metrics.counter("c").inc_many([1.0])
        assert NULL_TELEMETRY.metrics.snapshot() == []


# ----------------------------------------------------------------------
# Spans and events
# ----------------------------------------------------------------------


class TestSpans:
    def test_nesting_links_parent(self):
        tracer = SpanRecorder()
        with tracer.span("controller.cycle", machines=4) as root:
            with tracer.span("plan.dp") as child:
                child.set("feasible", True)
        assert child.parent_id == root.span_id
        assert root.parent_id is None
        assert root.duration >= child.duration >= 0
        assert child.attrs["feasible"] is True

    def test_sim_time_record(self):
        tracer = SpanRecorder()
        span = tracer.record("migrate.round", 100.0, 160.0, round=3)
        assert span.clock == "sim"
        assert span.duration == pytest.approx(60.0)
        assert tracer.by_name("migrate.round") == [span]

    def test_snapshot_roundtrips_json(self):
        tracer = SpanRecorder()
        with tracer.span("cycle"):
            pass
        dumped = json.loads(json.dumps(tracer.snapshot()))
        assert dumped[0]["name"] == "cycle"
        assert dumped[0]["clock"] == "wall"

    def test_exception_flags_span_aborted(self):
        tracer = SpanRecorder()
        with pytest.raises(RuntimeError):
            with tracer.span("controller.cycle"):
                with tracer.span("plan.dp"):
                    raise RuntimeError("boom")
        # Both spans flushed, both flagged, both closed.
        assert [s.name for s in tracer.spans] == [
            "plan.dp", "controller.cycle",
        ]
        assert all(s.attrs["aborted"] is True for s in tracer.spans)
        assert all(s.end is not None for s in tracer.spans)
        assert tracer.current is None

    def test_clean_spans_carry_no_aborted_flag(self):
        tracer = SpanRecorder()
        with tracer.span("cycle"):
            pass
        assert "aborted" not in tracer.spans[0].attrs

    def test_snapshot_flushes_open_spans_as_aborted(self):
        tracer = SpanRecorder()
        cm = tracer.span("controller.cycle", machines=4)
        cm.__enter__()
        rows = tracer.snapshot()
        # The span is still on the stack (a hard abort mid-run), yet the
        # export shows it, flagged, with no end time.
        assert len(rows) == 1
        assert rows[0]["name"] == "controller.cycle"
        assert rows[0]["attrs"]["aborted"] is True
        assert rows[0]["attrs"]["machines"] == 4
        assert rows[0]["end"] is None
        # The live span itself is not mutated by snapshotting.
        assert "aborted" not in tracer.current.attrs
        cm.__exit__(None, None, None)
        assert "aborted" not in tracer.snapshot()[0]["attrs"]


# ----------------------------------------------------------------------
# Runtime: global switch and null objects
# ----------------------------------------------------------------------


class TestRuntime:
    def test_disabled_by_default(self):
        assert get_telemetry() is NULL_TELEMETRY
        assert not get_telemetry().enabled

    def test_enable_disable(self):
        tel = enable_telemetry()
        try:
            assert get_telemetry() is tel
            assert tel.enabled
        finally:
            disable_telemetry()
        assert get_telemetry() is NULL_TELEMETRY

    def test_scope_restores_previous(self):
        with telemetry_scope() as tel:
            assert get_telemetry() is tel
        assert get_telemetry() is NULL_TELEMETRY

    def test_null_instruments_are_shared_noops(self):
        null = NULL_TELEMETRY
        assert null.metrics.counter("a") is null.metrics.counter("b")
        null.metrics.counter("a").inc()
        null.metrics.histogram("h").observe(1.0)
        null.metrics.gauge("g").set(3)
        null.chronicle.record("anything", time=0.0)
        with null.tracer.span("cycle") as span:
            span.set("k", "v")
        assert len(null.metrics) == 0
        assert len(null.chronicle) == 0
        assert null.tracer.snapshot() == []

    def test_null_registry_snapshot_empty(self):
        assert NullRegistry().snapshot() == []


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


def _synthetic_run() -> Telemetry:
    tel = Telemetry()
    for slot, (predicted, actual) in enumerate([(100.0, 110.0), (200.0, 190.0)]):
        tel.chronicle.record("forecast.snapshot", time=(slot + 1) * 300.0,
                             origin_slot=slot, predicted_next=predicted)
        record_interval(tel.tracer, (slot + 1) * 300.0, (slot + 2) * 300.0,
                        slot + 1, actual, 4 + slot, False)
    start = tel.chronicle.record("migration.start", time=480.0, before=4,
                                 after=5, emergency=True)
    tel.chronicle.record("migration.complete", time=900.0, parent=start,
                         before=4, after=5, seconds=420.0)
    tel.metrics.histogram("engine.latency_ms").observe(12.0)
    return tel


class TestExport:
    def test_forecast_pairs_and_mape(self):
        tel = _synthetic_run()
        pairs = forecast_vs_actual(tel)
        assert len(pairs) == 2
        assert pairs[0]["predicted"] == 100.0
        assert pairs[0]["actual"] == 110.0
        mape = forecast_mape(pairs)
        expected = 100.0 * (10.0 / 110.0 + 10.0 / 190.0) / 2.0
        assert mape == pytest.approx(expected)

    def test_export_run_writes_all_artifacts(self, tmp_path):
        paths = export_run(_synthetic_run(), tmp_path)
        assert sorted(paths) == ["chronicle", "metrics", "prom", "spans"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "chronicle.jsonl", "metrics.json", "metrics.prom", "spans.jsonl",
        ]
        spans = [json.loads(l) for l in paths["spans"].read_text().splitlines()]
        assert spans[0] == {"schema": SPANS_SCHEMA}
        assert [s["attrs"] for s in spans[1:]] == [
            {"slot": 1, "tps": 110.0, "machines": 4, "migrating": False},
            {"slot": 2, "tps": 190.0, "machines": 5, "migrating": False},
        ]
        doc = json.loads(paths["metrics"].read_text())
        assert doc["schema"] == METRICS_SCHEMA
        assert doc["derived"]["forecast"]["n_pairs"] == 2
        assert doc["derived"]["migrations"] == [{
            "time": 900.0, "before": 4, "after": 5, "seconds": 420.0,
            "emergency": True,      # read off the parent migration.start
        }]
        chronicle = [json.loads(l) for l in
                     paths["chronicle"].read_text().splitlines()]
        assert chronicle[0] == {"schema": CHRONICLE_SCHEMA}
        prom = paths["prom"].read_text()
        assert prom.rstrip().endswith("# EOF")
        assert "pstore_engine_latency_ms_bucket" in prom

    def test_dashboard_renders(self):
        text = render_dashboard(_synthetic_run())
        assert "machines" in text
        assert "measured load (txn/s)" in text
        assert "forecast" in text


# ----------------------------------------------------------------------
# CLI artifact schemas (acceptance criteria)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def simulate_artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("telemetry")
    code = main(["simulate", "p-store", "--days", "2", "--quiet",
                 "--telemetry-out", str(out)])
    assert code == 0
    assert not (out / "events.jsonl").exists()
    spans = [json.loads(l) for l in
             (out / "spans.jsonl").read_text().splitlines()]
    metrics = json.loads((out / "metrics.json").read_text())
    chronicle = [json.loads(l) for l in
                 (out / "chronicle.jsonl").read_text().splitlines()]
    return spans, metrics, chronicle


class TestCliArtifacts:
    def test_schema_headers(self, simulate_artifacts):
        spans, metrics, chronicle = simulate_artifacts
        assert chronicle[0]["schema"] == CHRONICLE_SCHEMA
        assert spans[0]["schema"] == SPANS_SCHEMA
        assert metrics["schema"] == METRICS_SCHEMA

    def test_spans_cover_the_control_loop(self, simulate_artifacts):
        spans, _, _ = simulate_artifacts
        by_name = {}
        for span in spans[1:]:
            by_name.setdefault(span["name"], []).append(span)
        cycles = by_name["controller.cycle"]
        assert len(cycles) > 100
        # Every cycle records its Decision outcome.
        assert all("reason" in s["attrs"] for s in cycles)
        assert all("target_machines" in s["attrs"] for s in cycles)
        # predict/plan children link back to their cycle.
        cycle_ids = {s["span_id"] for s in cycles}
        for child in by_name["predict.forecast"] + by_name["plan.dp"]:
            assert child["parent_id"] in cycle_ids
        assert all(s["duration"] >= 0 for s in spans[1:])

    def test_interval_spans_and_chronicle_cover_the_run(
        self, simulate_artifacts
    ):
        spans, _, chronicle = simulate_artifacts
        # The per-slot series: one sim-clock span per closed slot.
        intervals = [s for s in spans[1:] if s["name"] == "interval"]
        slots = [s["attrs"]["slot"] for s in intervals]
        assert slots == list(range(slots[0], slots[0] + 2 * 288))
        for span in intervals:
            assert span["clock"] == "sim"
            assert span["end"] - span["start"] == 300.0
            assert sorted(span["attrs"]) == [
                "machines", "migrating", "slot", "tps",
            ]
        # Forecasts and a move's lifecycle are told once, in the chronicle.
        snapshots = [r for r in chronicle[1:]
                     if r["kind"] == "forecast.snapshot"]
        assert {r["origin_slot"] + 1 for r in snapshots} & set(slots)
        assert not [s for s in spans[1:]
                    if s["name"].startswith(("forecast", "migration."))]
        completes = [r for r in chronicle[1:]
                     if r["kind"] == "migration.complete"]
        assert completes
        assert all(r["seconds"] > 0 for r in completes)
        starts = {r["id"]: r for r in chronicle[1:]
                  if r["kind"] == "migration.start"}
        assert all("reason" in r for r in starts.values())
        assert all(r["parent"] in starts for r in completes)

    def test_metrics_derived_sections(self, simulate_artifacts):
        _, metrics, _ = simulate_artifacts
        derived = metrics["derived"]
        forecast = derived["forecast"]
        assert forecast["n_pairs"] > 100
        assert 0.0 < forecast["mape_pct"] < 50.0
        assert derived["migrations"]
        quantiles = derived["latency_quantiles"]
        assert any(name.startswith("sim.latency_p99_ms") for name in quantiles)
        for stats in quantiles.values():
            assert stats["p50"] <= stats["p95"] <= stats["p99"]

    def test_disabled_run_leaves_global_clean(self, simulate_artifacts):
        # After the CLI run the process-global telemetry must be off again.
        assert not get_telemetry().enabled

    def test_unwritable_output_dir_is_a_clean_error(self, tmp_path, capsys):
        collision = tmp_path / "not-a-dir"
        collision.write_text("occupied")
        code = main(["generate", str(tmp_path / "t.csv"), "--days", "1",
                     "--telemetry-out", str(collision)])
        assert code == 1
        assert "error" in capsys.readouterr().err
        assert not get_telemetry().enabled


# ----------------------------------------------------------------------
# Overhead: disabled telemetry must be ~free
# ----------------------------------------------------------------------


class _Put(StoredProcedure):
    name = "Put"

    def routing_key(self, params):
        return params["k"]

    def run(self, ctx, params):
        ctx.upsert("kv", {"k": params["k"], "v": params["v"]})
        return params["v"]


class TestOverhead:
    def test_noop_guard_is_under_5pct_of_engine_run(self):
        schema = Schema(
            [Table("kv", [Column("k", "str"), Column("v", "int")],
                   primary_key="k")]
        )
        cluster = Cluster(schema, n_nodes=2, partitions_per_node=2,
                          n_buckets=64)
        executor = TransactionExecutor(cluster, telemetry=NULL_TELEMETRY)
        proc = _Put()
        n = 10_000

        start = time.perf_counter()
        for i in range(n):
            executor.execute(Transaction(proc, {"k": f"k{i}", "v": i}))
        engine_seconds = time.perf_counter() - start

        tel = NULL_TELEMETRY
        start = time.perf_counter()
        for i in range(n):
            if tel.enabled:  # the guard every instrumented hot path uses
                tel.metrics.counter("engine.txn_total").inc()
        guard_seconds = time.perf_counter() - start

        assert guard_seconds < 0.05 * engine_seconds, (
            f"no-op telemetry guard took {guard_seconds:.4f}s vs "
            f"{engine_seconds:.4f}s for the instrumented engine run"
        )
