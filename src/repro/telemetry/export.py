"""Run-artifact exporters: JSONL dumps, metrics snapshots, dashboards.

One instrumented run produces four machine-readable artifacts
(``pstore simulate --telemetry-out run1/``, :func:`export_run`):

``spans.jsonl``
    every recorded span, one JSON object per line: wall-clock control
    work and simulated-time spans, among them the per-slot series (one
    ``interval`` span per closed planner slot: ``slot``, ``tps``,
    ``machines``, ``migrating``);
``chronicle.jsonl``
    the causal chronicle — the one narrative record: forecasts,
    decisions, every move's ``migration.*`` lifecycle, ``service.*``
    actions, faults and violations, each with its ``parent``;
``metrics.json``
    the final metric snapshot plus derived summaries: the
    forecast-vs-actual series with its MAPE, per-reconfiguration
    migration durations, and the latency quantiles of every histogram;
``metrics.prom``
    the same registry as OpenMetrics text.

:func:`render_dashboard` turns the same data into the plain-text
summary printed at the end of a CLI run.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
from typing import Dict, List, Optional

from .causal import CHRONICLE_SCHEMA

#: Version tags written into every artifact so later PRs can evolve the
#: schemas without breaking old readers.
SPANS_SCHEMA = "pstore.spans/v1"
METRICS_SCHEMA = "pstore.metrics/v1"


def _clean(value):
    """JSON-encodable copy of ``value`` (numpy scalars, inf, nan)."""
    if isinstance(value, dict):
        return {str(k): _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if hasattr(value, "item"):  # numpy scalar
        return _clean(value.item())
    return value


def write_jsonl(rows: List[dict], path) -> pathlib.Path:
    path = pathlib.Path(path)
    with path.open("w") as fh:
        for row in rows:
            fh.write(json.dumps(_clean(row), sort_keys=True))
            fh.write("\n")
    return path


# ----------------------------------------------------------------------
# Derived series
# ----------------------------------------------------------------------


def _interval_rows(telemetry) -> List[dict]:
    """The per-slot series: the attributes (``slot``, ``tps``,
    ``machines``, ``migrating``) of every ``interval`` span, in the
    order the slots closed."""
    return [span.attrs for span in telemetry.tracer.by_name("interval")]


def forecast_vs_actual(telemetry) -> List[dict]:
    """Align ``forecast.snapshot`` records with the ``interval``
    measurements they predicted.

    A forecast made after observing ``origin_slot`` predicts the next
    interval, i.e. the span with ``slot == origin_slot + 1``; pairs
    whose measurement never arrived (end of run) are dropped.
    """
    measured = {row["slot"]: row["tps"] for row in _interval_rows(telemetry)}
    pairs: List[dict] = []
    for snapshot in telemetry.chronicle.by_kind("forecast.snapshot"):
        slot = snapshot["origin_slot"] + 1
        if slot not in measured:
            continue
        pairs.append(
            {
                "slot": slot,
                "predicted": snapshot.get("predicted_next"),
                "inflated": snapshot.get("inflated_next"),
                "actual": measured[slot],
            }
        )
    return pairs


def forecast_mape(pairs: List[dict]) -> Optional[float]:
    """Mean absolute percentage error of the forecast series (percent)."""
    errors = [
        abs(p["predicted"] - p["actual"]) / p["actual"]
        for p in pairs
        if p.get("predicted") is not None and p.get("actual")
    ]
    if not errors:
        return None
    return 100.0 * sum(errors) / len(errors)


def migration_summary(telemetry) -> List[dict]:
    """One row per completed reconfiguration, from the chronicle:
    ``migration.complete`` plus the ``emergency`` flag of the
    ``migration.start`` it is parented on."""
    chronicle = telemetry.chronicle
    emergency = {
        r["id"]: r.get("emergency", False)
        for r in chronicle.by_kind("migration.start")
    }
    return [
        {
            "time": r.get("time"),
            "before": r.get("before"),
            "after": r.get("after"),
            "seconds": r.get("seconds"),
            "emergency": emergency.get(r.get("parent"), False),
        }
        for r in chronicle.by_kind("migration.complete")
    ]


def latency_quantiles(telemetry) -> Dict[str, dict]:
    """p50/p95/p99 of every histogram, keyed by ``name{labels}``."""
    out: Dict[str, dict] = {}
    for snap in telemetry.metrics.snapshot():
        if snap.get("kind") != "histogram" or not snap.get("count"):
            continue
        labels = snap.get("labels") or {}
        suffix = (
            "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
            if labels
            else ""
        )
        out[snap["name"] + suffix] = dict(snap["quantiles"], count=snap["count"])
    return out


# ----------------------------------------------------------------------
# Artifact writers
# ----------------------------------------------------------------------


def accuracy_summary(telemetry) -> List[dict]:
    """Per (predictor, tau) rolling error stats from the accuracy
    tracker (empty for bundles without one)."""
    tracker = getattr(telemetry, "accuracy", None)
    return tracker.snapshot() if tracker is not None else []


def metrics_document(telemetry) -> dict:
    """The full ``metrics.json`` document (snapshot + derived series)."""
    pairs = forecast_vs_actual(telemetry)
    return {
        "schema": METRICS_SCHEMA,
        "metrics": telemetry.metrics.snapshot(),
        "derived": {
            "forecast": {
                "n_pairs": len(pairs),
                "mape_pct": forecast_mape(pairs),
                "series": pairs,
            },
            "accuracy": accuracy_summary(telemetry),
            "migrations": migration_summary(telemetry),
            "latency_quantiles": latency_quantiles(telemetry),
        },
    }


def write_spans_jsonl(telemetry, path) -> pathlib.Path:
    rows = [{"schema": SPANS_SCHEMA}] + telemetry.tracer.snapshot()
    return write_jsonl(rows, path)


def write_metrics_json(telemetry, path) -> pathlib.Path:
    path = pathlib.Path(path)
    path.write_text(json.dumps(_clean(metrics_document(telemetry)), indent=2,
                               sort_keys=True))
    return path


def write_chronicle_jsonl(telemetry, path) -> pathlib.Path:
    """The causal chronicle (flight-recorder records) as JSONL."""
    chronicle = getattr(telemetry, "chronicle", None)
    rows = [{"schema": CHRONICLE_SCHEMA}]
    if chronicle is not None:
        rows += chronicle.snapshot()
    return write_jsonl(rows, path)


def _prom_name(name: str) -> str:
    return "pstore_" + re.sub(r"[^A-Za-z0-9_]", "_", name)


def _prom_labels(labels: Dict[str, object]) -> str:
    if not labels:
        return ""
    rendered = ",".join(
        f'{re.sub(r"[^A-Za-z0-9_]", "_", k)}="{v}"'
        for k, v in sorted(labels.items())
    )
    return "{" + rendered + "}"


def _prom_value(value) -> str:
    if value is None:
        return "NaN"
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return format(value, ".10g")


def render_metrics_prom(telemetry) -> str:
    """OpenMetrics-style text exposition of the metrics registry.

    Counters get a ``_total`` suffix, histograms expand into cumulative
    ``_bucket{le=...}`` series plus ``_sum``/``_count``, and every family
    carries a ``# TYPE`` line, so the text drops straight into any
    Prometheus-compatible scraper or ``promtool check metrics``.  The
    live control plane (``pstore serve``) serves exactly this text from
    its ``/metrics`` endpoint; :func:`write_metrics_prom` persists it as
    the ``metrics.prom`` run artifact.
    """
    lines: List[str] = []
    typed: set = set()
    for snap in telemetry.metrics.snapshot():
        name = _prom_name(snap["name"])
        labels = _prom_labels(snap.get("labels") or {})
        kind = snap["kind"]
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")
        if kind == "counter":
            lines.append(f"{name}_total{labels} {_prom_value(snap['value'])}")
        elif kind == "gauge":
            lines.append(f"{name}{labels} {_prom_value(snap['value'])}")
        else:  # histogram
            base_labels = dict(snap.get("labels") or {})
            cumulative = 0
            for bucket in snap.get("buckets", []):
                cumulative += bucket["count"]
                le = (
                    "+Inf"
                    if bucket["le"] is None
                    else _prom_value(bucket["le"])
                )
                bucket_labels = _prom_labels(dict(base_labels, le=le))
                lines.append(f"{name}_bucket{bucket_labels} {cumulative}")
            if not snap.get("buckets") or snap["buckets"][-1]["le"] is not None:
                inf_labels = _prom_labels(dict(base_labels, le="+Inf"))
                lines.append(f"{name}_bucket{inf_labels} {snap['count']}")
            lines.append(f"{name}_sum{labels} {_prom_value(snap['sum'])}")
            lines.append(f"{name}_count{labels} {snap['count']}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_metrics_prom(telemetry, path) -> pathlib.Path:
    """Persist :func:`render_metrics_prom` output as ``metrics.prom``."""
    path = pathlib.Path(path)
    path.write_text(render_metrics_prom(telemetry))
    return path


def export_run(telemetry, out_dir) -> Dict[str, pathlib.Path]:
    """Write the standard artifact set into ``out_dir`` (created if needed)."""
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return {
        "spans": write_spans_jsonl(telemetry, out / "spans.jsonl"),
        "metrics": write_metrics_json(telemetry, out / "metrics.json"),
        "chronicle": write_chronicle_jsonl(telemetry, out / "chronicle.jsonl"),
        "prom": write_metrics_prom(telemetry, out / "metrics.prom"),
    }


# ----------------------------------------------------------------------
# Dashboard
# ----------------------------------------------------------------------


def render_dashboard(telemetry, title: str = "run summary") -> str:
    """Plain-text run summary (machines, forecast error, migrations,
    latency quantiles), built on the shared ASCII report helpers."""
    # Imported lazily: repro.analysis pulls in the simulators, which
    # themselves import repro.telemetry at module load.
    from ..analysis.report import ascii_table, series_block

    sections: List[str] = [title, "=" * len(title)]

    intervals = _interval_rows(telemetry)
    if intervals:
        sections.append(
            series_block("machines", [row["machines"] for row in intervals])
        )
        sections.append(
            series_block(
                "measured load (txn/s)", [row["tps"] for row in intervals]
            )
        )

    pairs = forecast_vs_actual(telemetry)
    mape = forecast_mape(pairs)
    if mape is not None:
        sections.append(
            f"forecast MAPE {mape:.1f}% over {len(pairs)} intervals"
        )

    accuracy = accuracy_summary(telemetry)
    if accuracy:
        def fmt(value, suffix="%"):
            return "-" if value is None else f"{value:.1f}{suffix}"

        shown = accuracy[:12]
        rows = [
            (
                row["predictor"],
                row["tau"],
                row["pairs_window"],
                fmt(row["mape_pct"]),
                fmt(row["smape_pct"]),
                fmt(row["bias_pct"]),
                fmt(row["coverage_pct"]),
            )
            for row in shown
        ]
        table = ascii_table(
            ["predictor", "tau", "n", "MAPE", "sMAPE", "bias", "coverage"],
            rows,
            title="forecast accuracy (rolling window)",
        )
        if len(accuracy) > len(shown):
            table += f"\n(+{len(accuracy) - len(shown)} more taus)"
        sections.append(table)

    migrations = migration_summary(telemetry)
    if migrations:
        rows = [
            (
                f"{m['time']:,.0f}" if m.get("time") is not None else "-",
                m.get("before", "-"),
                m.get("after", "-"),
                f"{m['seconds']:,.0f}" if m.get("seconds") is not None else "-",
                "yes" if m.get("emergency") else "",
            )
            for m in migrations
        ]
        sections.append(
            ascii_table(
                ["t (s)", "before", "after", "duration (s)", "emergency"],
                rows,
                title=f"reconfigurations ({len(migrations)})",
            )
        )

    quantiles = latency_quantiles(telemetry)
    if quantiles:
        rows = [
            (
                name,
                stats["count"],
                f"{stats['p50']:.1f}",
                f"{stats['p95']:.1f}",
                f"{stats['p99']:.1f}",
            )
            for name, stats in sorted(quantiles.items())
        ]
        sections.append(
            ascii_table(
                ["histogram", "n", "p50", "p95", "p99"],
                rows,
                title="latency quantiles (ms unless noted)",
            )
        )

    counters = [
        s for s in telemetry.metrics.snapshot() if s.get("kind") == "counter"
    ]
    if counters:
        rows = [
            (
                s["name"]
                + (
                    "{" + ",".join(
                        f"{k}={v}" for k, v in sorted(s["labels"].items())
                    ) + "}"
                    if s.get("labels")
                    else ""
                ),
                int(s["value"]),
            )
            for s in counters
        ]
        sections.append(ascii_table(["counter", "value"], rows))

    return "\n\n".join(sections)
