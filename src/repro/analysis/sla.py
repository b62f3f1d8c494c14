"""Causal attribution of SLA violations (``pstore explain``).

"We define SLA violations as the total number of seconds during the
experiment in which the 50th, 95th, or 99th percentile latency exceeds
500 ms, since that is the maximum delay that is unnoticeable by users."
A run counts them itself (``SimulationResult.sla_violations``; Table 2
in ``experiments.tab02``); this module sorts each one into a cause.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

#: Causal buckets ``pstore explain`` sorts violating intervals into.
#: Each violation is attributed to exactly one.
CAUSE_FAULT = "fault"
CAUSE_MIGRATION = "migration-overhead"
CAUSE_UNDER_FORECAST = "under-forecast"
CAUSE_HEADROOM = "planner-headroom"
CAUSE_BUCKETS = (
    CAUSE_FAULT,
    CAUSE_MIGRATION,
    CAUSE_UNDER_FORECAST,
    CAUSE_HEADROOM,
)


def attribute_violation(record: Mapping) -> str:
    """Attribute one chronicle ``sla.violation`` (or
    ``capacity.insufficient``) record to exactly one causal bucket.

    Precedence mirrors how directly each cause forces the violation: an
    active fault dominates (the cluster was degraded no matter what the
    planner did), then migration overhead (data movement stole capacity),
    then an under-forecast (the measured load exceeded even the inflated
    prediction that sized the cluster), and otherwise planner headroom —
    the forecast covered the load but the chosen allocation still ran
    hot (within-interval spikes, the paper's 15% buffer being too thin).
    """
    if record.get("fault_seconds"):
        return CAUSE_FAULT
    if record.get("migrating_seconds") or record.get("migrating"):
        return CAUSE_MIGRATION
    inflated = record.get("inflated_tps")
    measured = record.get("measured_tps")
    if measured is None:
        measured = record.get("peak_tps")
    if inflated is not None and measured is not None:
        if float(measured) > float(inflated):
            return CAUSE_UNDER_FORECAST
    return CAUSE_HEADROOM


def attribution_totals(records: Iterable[Mapping]) -> Dict[str, float]:
    """Violation-seconds per causal bucket over chronicle records
    (records without a ``seconds`` field count as one interval each)."""
    totals: Dict[str, float] = {bucket: 0.0 for bucket in CAUSE_BUCKETS}
    for record in records:
        totals[attribute_violation(record)] += float(
            record.get("seconds", 1) or 0
        )
    return totals
