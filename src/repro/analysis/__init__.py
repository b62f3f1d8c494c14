"""Result analysis: tail CDFs, queueing thresholds, ``pstore explain``'s
causal attribution, and the plain-text report rendering behind
``pstore paper``.  Each figure's own arithmetic lives in its
``repro.experiments`` module."""

from .cdf import EmpiricalCdf, empirical_cdf, top_tail_cdf
from .queueing import (
    DerivedThresholds,
    derive_thresholds,
    max_arrival_rate_for_sla,
    mean_sojourn,
    sojourn_percentile,
    utilization_for_sla,
)
from .explain import (
    ExplainReport,
    build_index,
    causal_chain,
    explain_run,
    load_chronicle,
    render_explain,
)
from .report import (
    ascii_table,
    claim,
    paper_vs_measured,
    series_block,
    sparkline,
    splice_report,
)
from .sla import (
    CAUSE_BUCKETS,
    CAUSE_FAULT,
    CAUSE_HEADROOM,
    CAUSE_MIGRATION,
    CAUSE_UNDER_FORECAST,
    attribute_violation,
    attribution_totals,
)

__all__ = [
    "CAUSE_BUCKETS",
    "CAUSE_FAULT",
    "CAUSE_HEADROOM",
    "CAUSE_MIGRATION",
    "CAUSE_UNDER_FORECAST",
    "DerivedThresholds",
    "ExplainReport",
    "attribute_violation",
    "attribution_totals",
    "build_index",
    "causal_chain",
    "explain_run",
    "load_chronicle",
    "render_explain",
    "derive_thresholds",
    "max_arrival_rate_for_sla",
    "mean_sojourn",
    "sojourn_percentile",
    "utilization_for_sla",
    "EmpiricalCdf",
    "ascii_table",
    "claim",
    "empirical_cdf",
    "paper_vs_measured",
    "series_block",
    "sparkline",
    "splice_report",
    "top_tail_cdf",
]
