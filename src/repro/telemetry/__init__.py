"""Observability for the predict -> plan -> migrate control loop.

Four recorders, one kind of fact each:

* :mod:`repro.telemetry.metrics` — levels and totals: counters, gauges,
  and fixed-bucket streaming histograms in a label-aware registry;
* :mod:`repro.telemetry.tracing` — anything with a duration: wall-clock
  spans (one root per controller cycle) and simulated-time spans (one
  ``interval`` per closed planner slot, migration rounds);
* :mod:`repro.telemetry.causal` — anything that happened and why: the
  chronicle of forecasts, decisions, moves, faults and violations;
* :mod:`repro.telemetry.accuracy` — forecasts scored against the
  measurements that arrive later.

:mod:`repro.telemetry.runtime` bundles the four behind a process-global
default that is a no-op until :func:`enable_telemetry` is called, and
:mod:`repro.telemetry.export` turns a finished run into ``spans.jsonl``,
``chronicle.jsonl``, ``metrics.json``, ``metrics.prom`` and an ASCII
dashboard.

See docs/OBSERVABILITY.md for metric names, the span hierarchy, and the
artifact file formats.
"""

from .accuracy import (
    DEFAULT_WINDOW,
    NULL_ACCURACY,
    AccuracyTracker,
    NullAccuracyTracker,
)
from .causal import (
    CHRONICLE_SCHEMA,
    NULL_CHRONICLE,
    FlightRecorder,
    NullFlightRecorder,
    make_record_id,
)
from .export import (
    METRICS_SCHEMA,
    SPANS_SCHEMA,
    accuracy_summary,
    export_run,
    forecast_mape,
    forecast_vs_actual,
    latency_quantiles,
    metrics_document,
    migration_summary,
    render_dashboard,
    render_metrics_prom,
    write_chronicle_jsonl,
    write_metrics_json,
    write_metrics_prom,
    write_spans_jsonl,
)
from .metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    default_buckets,
)
from .runtime import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    disable_telemetry,
    enable_telemetry,
    get_telemetry,
    set_telemetry,
    telemetry_scope,
)
from .tracing import NULL_RECORDER, NullRecorder, Span, SpanRecorder

__all__ = [
    "AccuracyTracker",
    "CHRONICLE_SCHEMA",
    "Counter",
    "DEFAULT_WINDOW",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "NULL_ACCURACY",
    "NULL_CHRONICLE",
    "NULL_RECORDER",
    "NULL_REGISTRY",
    "NULL_TELEMETRY",
    "NullAccuracyTracker",
    "NullFlightRecorder",
    "NullRecorder",
    "NullRegistry",
    "NullTelemetry",
    "SPANS_SCHEMA",
    "Span",
    "SpanRecorder",
    "Telemetry",
    "accuracy_summary",
    "default_buckets",
    "disable_telemetry",
    "enable_telemetry",
    "export_run",
    "forecast_mape",
    "forecast_vs_actual",
    "get_telemetry",
    "latency_quantiles",
    "make_record_id",
    "metrics_document",
    "migration_summary",
    "render_dashboard",
    "render_metrics_prom",
    "set_telemetry",
    "telemetry_scope",
    "write_chronicle_jsonl",
    "write_metrics_json",
    "write_metrics_prom",
    "write_spans_jsonl",
]
