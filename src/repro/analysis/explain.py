"""``pstore explain``: causal post-mortems from a run's chronicle.

A run directory produced with ``--telemetry-out`` contains
``chronicle.jsonl`` — the flight recorder's records, each with a stable
ID and a ``parent`` link (:mod:`repro.telemetry.causal`).  This module
turns that file back into walkable causal chains and attributes every
SLA-violating interval to exactly one causal bucket
(:func:`repro.analysis.sla.attribute_violation`):

* ``fault`` — an injected fault was active during the interval;
* ``migration-overhead`` — a reconfiguration was moving data;
* ``under-forecast`` — measured load exceeded even the inflated forecast;
* ``planner-headroom`` — the forecast covered the load, but the chosen
  allocation still ran hot (within-interval spikes vs. the 15% buffer).

Merged sweep chronicles (``pstore sweep`` manifests) tag each row with
its grid cell; IDs are namespaced per cell on load so per-bundle
sequence counters cannot collide.

Timeline caveat: controller-side records (``forecast.snapshot``,
``plan.decision``) are stamped on the *history* timeline, which includes
any seeded training window, while simulator-side records use run-relative
seconds.  ``--window`` therefore filters on the anchor records
(violations and reconfigurations, which share the simulator timeline)
and chains are always rendered whole.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import TelemetryError
from .report import ascii_table
from .sla import CAUSE_BUCKETS, attribute_violation, attribution_totals

#: Record kinds treated as violation anchors by ``explain``.
_VIOLATION_KINDS = ("sla.violation", "capacity.insufficient")


def load_chronicle(run_dir) -> List[dict]:
    """Read and validate ``chronicle.jsonl`` from a run directory.

    Accepts both single-run chronicles and merged sweep chronicles; in
    the latter, rows carry a ``cell`` label and their IDs and parent
    links are namespaced as ``<cell>/<id>`` so chains stay unambiguous.
    """
    run_dir = pathlib.Path(run_dir)
    path = run_dir / "chronicle.jsonl"
    if run_dir.is_file():
        path = run_dir
    if not path.exists():
        raise TelemetryError(
            f"no chronicle.jsonl in {run_dir} — re-run with --telemetry-out "
            "(or point at a sweep manifest directory)"
        )
    rows: List[dict] = []
    with path.open() as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise TelemetryError(
                    f"{path}:{line_no}: not valid JSON ({exc})"
                ) from None
    if not rows or "schema" not in rows[0]:
        raise TelemetryError(
            f"{path} is missing its schema header row"
        )
    schema = str(rows[0]["schema"])
    if not schema.startswith("pstore.chronicle/"):
        raise TelemetryError(
            f"{path} has schema {schema!r}, expected pstore.chronicle/*"
        )
    records = []
    for row in rows[1:]:
        cell = row.get("cell")
        if cell is not None:
            row = dict(row)
            if row.get("id"):
                row["id"] = f"{cell}/{row['id']}"
            if row.get("parent"):
                row["parent"] = f"{cell}/{row['parent']}"
        records.append(row)
    return records


def build_index(
    records: List[dict],
) -> Tuple[Dict[str, dict], Dict[str, List[dict]]]:
    """``(by_id, children)`` lookup tables over chronicle records."""
    by_id: Dict[str, dict] = {}
    children: Dict[str, List[dict]] = {}
    for record in records:
        rid = record.get("id")
        if rid:
            by_id[rid] = record
        parent = record.get("parent")
        if parent:
            children.setdefault(parent, []).append(record)
    return by_id, children


def causal_chain(record: dict, by_id: Dict[str, dict]) -> List[dict]:
    """The parent chain of ``record``, root first (cycle-safe)."""
    chain: List[dict] = [record]
    seen = {record.get("id")}
    current = record
    while True:
        parent = current.get("parent")
        if not parent or parent in seen:
            break
        parent_record = by_id.get(parent)
        if parent_record is None:
            # A dangling parent (e.g. a window-trimmed merge): keep a
            # stub so the rendered chain shows the broken link honestly.
            chain.append({"id": parent, "kind": "(missing)"})
            break
        chain.append(parent_record)
        seen.add(parent)
        current = parent_record
    chain.reverse()
    return chain


@dataclass
class ExplainReport:
    """Everything ``pstore explain`` knows about one run."""

    run_dir: str
    records: List[dict]
    violations: List[dict] = field(default_factory=list)
    reconfigurations: List[dict] = field(default_factory=list)
    window: Optional[Tuple[float, float]] = None

    def __post_init__(self) -> None:
        self.by_id, self.children = build_index(self.records)

    @property
    def attribution(self) -> Dict[str, float]:
        """Violation-seconds per causal bucket (window-filtered)."""
        return attribution_totals(self.violations)

    def chain(self, record: dict) -> List[dict]:
        return causal_chain(record, self.by_id)

    def to_dict(self) -> dict:
        """JSON-able summary (the ``pstore explain --json`` payload)."""
        return {
            "run_dir": self.run_dir,
            "window": list(self.window) if self.window else None,
            "n_records": len(self.records),
            "attribution": self.attribution,
            "violations": [
                {
                    "record": violation,
                    "cause": attribute_violation(violation),
                    "predictor": _violation_predictor(violation, self),
                    "chain": [r.get("id") for r in self.chain(violation)],
                }
                for violation in self.violations
            ],
            "reconfigurations": [
                {
                    "record": move,
                    "rounds": sum(
                        1
                        for child in self.children.get(move.get("id"), [])
                        if child.get("kind") == "migration.round"
                    ),
                    "outcome": self._move_outcome(move),
                }
                for move in self.reconfigurations
            ],
        }

    def _move_outcome(self, move: dict) -> Optional[dict]:
        for child in self.children.get(move.get("id"), []):
            if child.get("kind") in ("migration.complete",
                                     "migration.aborted"):
                return child
        return None


def _in_window(record: dict, window: Optional[Tuple[float, float]]) -> bool:
    if window is None:
        return True
    time = record.get("time")
    if time is None:
        return False
    return window[0] <= float(time) <= window[1]


def explain_run(
    run_dir, window: Optional[Tuple[float, float]] = None
) -> ExplainReport:
    """Load a run's chronicle and build its causal report."""
    if window is not None and window[0] > window[1]:
        raise TelemetryError(
            f"explain window start {window[0]} is after end {window[1]}"
        )
    records = load_chronicle(run_dir)
    violations = [
        r for r in records
        if r.get("kind") in _VIOLATION_KINDS and _in_window(r, window)
    ]
    reconfigurations = [
        r for r in records
        if r.get("kind") == "migration.start" and _in_window(r, window)
    ]
    return ExplainReport(
        run_dir=str(run_dir),
        records=records,
        violations=violations,
        reconfigurations=reconfigurations,
        window=window,
    )


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def _fmt_time(value) -> str:
    if value is None:
        return "t=?"
    return f"t={float(value):,.0f}s"


def _fmt_tps(value) -> str:
    return "?" if value is None else f"{float(value):,.0f}"


def _describe(record: dict) -> str:
    """One-line, kind-aware description of a chronicle record."""
    kind = record.get("kind", "?")
    time = _fmt_time(record.get("time"))
    if kind == "forecast.snapshot":
        return (
            f"{time} {record.get('predictor', 'predictor')} forecast: "
            f"next {_fmt_tps(record.get('predicted_next'))} tps "
            f"(inflated {_fmt_tps(record.get('inflated_next'))}, "
            f"peak {_fmt_tps(record.get('predicted_peak'))}) "
            f"from slot {record.get('origin_slot')}"
        )
    if kind == "forecast.accuracy":
        action = record.get("action", "?")
        if action == "recovered":
            return (
                f"{time} forecast accuracy recovered "
                f"({record.get('predictor', '?')} tau={record.get('tau')})"
            )
        value = record.get("value_pct")
        threshold = record.get("threshold_pct")
        detail = ""
        if value is not None and threshold is not None:
            detail = f" {float(value):.1f}% > {float(threshold):.1f}%"
        return (
            f"{time} forecast accuracy breach: "
            f"{record.get('metric', '?')}{detail} "
            f"({record.get('predictor', '?')} tau={record.get('tau')}, "
            f"{record.get('pairs')} pairs) -> {action}"
        )
    if kind == "plan.decision":
        target = record.get("target_machines")
        action = (
            f"-> {target} machines" if target is not None else "no action"
        )
        return (
            f"{time} plan [{record.get('decision_kind', '?')}] {action}: "
            f"{record.get('reason', '')}"
            + (" (EMERGENCY)" if record.get("emergency") else "")
        )
    if kind == "migration.start":
        return (
            f"{time} reconfigure {record.get('before')} -> "
            f"{record.get('after')} machines "
            f"at {_fmt_tps(record.get('rate_kbps'))} kB/s"
            + (" (EMERGENCY)" if record.get("emergency") else "")
        )
    if kind == "migration.round":
        return (
            f"{time} round {record.get('round')} committed "
            f"({record.get('transfers')} transfers)"
        )
    if kind == "migration.complete":
        seconds = record.get("seconds")
        dur = f" in {float(seconds):,.0f}s" if seconds is not None else ""
        return (
            f"{time} move complete: {record.get('before')} -> "
            f"{record.get('after')} machines{dur}"
        )
    if kind == "migration.aborted":
        return f"{time} move ABORTED ({record.get('reason', '?')})"
    if kind == "node.add":
        return f"{time} nodes added: {record.get('nodes')}"
    if kind == "node.remove":
        nodes = record.get("nodes", record.get("node"))
        return f"{time} nodes removed: {nodes} ({record.get('reason', '?')})"
    if kind == "fault.injected":
        return (
            f"{time} fault injected: {record.get('fault_kind', '?')}"
            f" [{record.get('label', '')}]"
            + (
                f" on node {record.get('node')}"
                if record.get("node") is not None
                else ""
            )
        )
    if kind in ("fault.detected", "fault.retry", "fault.recovered"):
        step = kind.split(".", 1)[1]
        return f"{time} fault {step}: {record.get('fault_kind', '?')}"
    if kind == "sla.violation":
        return (
            f"{time} slot {record.get('slot')}: "
            f"{record.get('seconds')}s over SLA "
            f"(worst p99 {record.get('p99_max_ms', 0):,.0f} ms, "
            f"measured {_fmt_tps(record.get('measured_tps'))} tps on "
            f"{record.get('machines')} machines)"
        )
    if kind == "capacity.insufficient":
        return (
            f"{time} slot {record.get('slot')}: peak "
            f"{_fmt_tps(record.get('peak_tps'))} tps exceeded effective "
            f"capacity {_fmt_tps(record.get('eff_cap'))} tps "
            f"({record.get('machines')} machines"
            + (", migrating)" if record.get("migrating") else ")")
        )
    return f"{time} {kind}"


def _violation_predictor(
    violation: dict, report: Optional[ExplainReport] = None
) -> Optional[str]:
    """The forecast model behind a violating interval, if recorded.

    Capacity-sim violations carry the predictor's registry name
    directly; otherwise the causal chain is walked back to the nearest
    ``forecast.snapshot`` record, which has always named its model.
    """
    name = violation.get("predictor")
    if name:
        return str(name)
    if report is not None:
        for record in reversed(report.chain(violation)):
            if (
                record.get("kind") == "forecast.snapshot"
                and record.get("predictor")
            ):
                return str(record["predictor"])
    return None


def _cause_detail(
    violation: dict, cause: str, report: Optional[ExplainReport] = None
) -> str:
    if cause == "under-forecast":
        measured = violation.get("measured_tps", violation.get("peak_tps"))
        model = _violation_predictor(violation, report)
        forecast = f"inflated {model} forecast" if model else "inflated forecast"
        return (
            f"measured {_fmt_tps(measured)} tps > {forecast} "
            f"{_fmt_tps(violation.get('inflated_tps'))} tps"
        )
    if cause == "migration-overhead":
        seconds = violation.get("migrating_seconds")
        if seconds:
            return f"{seconds}s of the interval spent migrating"
        return "interval spent migrating"
    if cause == "fault":
        seconds = violation.get("fault_seconds")
        if seconds:
            return f"{seconds}s of the interval under fault activity"
        return "fault active during the interval"
    measured = violation.get("measured_tps", violation.get("peak_tps"))
    if violation.get("inflated_tps") is None:
        return (
            f"no forecast context — the allocation simply ran hot at "
            f"{_fmt_tps(measured)} tps"
        )
    return (
        f"load {_fmt_tps(measured)} tps was within the inflated forecast "
        f"{_fmt_tps(violation.get('inflated_tps'))} tps"
    )


def render_explain(report: ExplainReport) -> str:
    """Plain-text causal post-mortem of one run."""
    lines: List[str] = []
    title = f"pstore explain — {report.run_dir}"
    lines.append(title)
    lines.append("=" * len(title))
    scope = f"{len(report.records)} chronicle records"
    if report.window is not None:
        scope += (
            f", window {report.window[0]:,.0f}s..{report.window[1]:,.0f}s"
        )
    lines.append(scope)
    lines.append("")

    attribution = report.attribution
    total_seconds = sum(attribution.values())
    counts = {bucket: 0 for bucket in CAUSE_BUCKETS}
    for violation in report.violations:
        counts[attribute_violation(violation)] += 1
    if report.violations:
        lines.append(
            ascii_table(
                ["cause", "violation-seconds", "intervals"],
                [
                    (bucket, f"{attribution[bucket]:,.0f}", counts[bucket])
                    for bucket in CAUSE_BUCKETS
                ],
                title=(
                    f"attribution of {len(report.violations)} violating "
                    f"interval(s), {total_seconds:,.0f} violation-seconds"
                ),
            )
        )
    else:
        lines.append("no SLA-violating intervals in scope — clean run")
    lines.append("")

    for violation in report.violations:
        cause = attribute_violation(violation)
        lines.append(
            f"[{cause}] {violation.get('id', '?')} — "
            f"{_cause_detail(violation, cause, report)}"
        )
        for depth, record in enumerate(report.chain(violation)):
            indent = "  " * depth
            marker = "└─ " if depth else ""
            lines.append(
                f"  {indent}{marker}{record.get('id', '?')} "
                f"{record.get('kind', '?')}: {_describe(record)}"
            )
        lines.append("")

    if report.reconfigurations:
        lines.append(f"reconfigurations ({len(report.reconfigurations)}):")
        for move in report.reconfigurations:
            rounds = sum(
                1
                for child in report.children.get(move.get("id"), [])
                if child.get("kind") == "migration.round"
            )
            outcome = report._move_outcome(move)
            if outcome is None:
                status = "in flight at end of run"
            elif outcome.get("kind") == "migration.aborted":
                status = f"aborted ({outcome.get('reason', '?')})"
            else:
                seconds = outcome.get("seconds")
                status = (
                    f"completed in {float(seconds):,.0f}s"
                    if seconds is not None
                    else "completed"
                )
            detail = f", {rounds} rounds committed" if rounds else ""
            lines.append(
                f"  {move.get('id', '?')}: {_describe(move)} — "
                f"{status}{detail}"
            )
            chain = report.chain(move)
            if len(chain) > 1:
                origin = " -> ".join(
                    f"{r.get('id', '?')}" for r in chain[:-1]
                )
                lines.append(f"      caused by: {origin}")
        lines.append("")

    return "\n".join(lines).rstrip() + "\n"
