"""Experiment: Figure 1 — three days of load on a B2W database.

The paper's opening figure shows the diurnal pattern that motivates the
whole system: load peaks during the day, dips at night, and the peak is
about 10x the trough.  We regenerate the equivalent synthetic trace and
report its shape statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.report import claim
from ..workload import b2w_like_trace


@dataclass
class Figure1Result:
    """Shape statistics of the regenerated Fig. 1 trace."""

    peak_requests_per_min: float
    trough_requests_per_min: float
    peak_to_trough: float
    daily_autocorrelation: float


def grid(n_days: int = 3, seed: int = 7) -> list:
    from ..runner import RunSpec

    return [
        RunSpec(
            experiment="fig01",
            cell="trace-shape",
            seed=seed,
            overrides=(("n_days", int(n_days)),),
        )
    ]


def run_cell(spec, config) -> dict:
    """Generate the Fig. 1 trace (per-minute request counts) and measure
    its shape."""
    n_days = int(spec.option("n_days", 3))
    trace = b2w_like_trace(
        n_days=n_days,
        slot_seconds=60.0,
        seed=spec.seed,
        base_level=22_000.0,  # Fig. 1 peaks near 2.2e4 requests/min
    )
    values = trace.values
    per_day = trace.slots_per_day
    if n_days >= 2:
        x = values[:-per_day] - values[:-per_day].mean()
        y = values[per_day:] - values[per_day:].mean()
        autocorr = float((x * y).mean() / (x.std() * y.std()))
    else:
        autocorr = float("nan")
    # Shape statistics over smoothed values (per-slot noise would make
    # the raw trough unrepresentative of the curve the paper plots); the
    # peak/trough ratio is the mean of the per-day ratios, which is what
    # "the peak load is about 10x the trough" refers to.
    smooth = trace.smoothed(15)
    ratios = []
    for day in range(n_days):
        day_slice = smooth.values[day * per_day : (day + 1) * per_day]
        ratios.append(day_slice.max() / day_slice.min())
    return {
        "peak_requests_per_min": smooth.peak,
        "trough_requests_per_min": smooth.trough,
        "peak_to_trough": float(np.mean(ratios)),
        "daily_autocorrelation": autocorr,
    }


def fold(payloads) -> Figure1Result:
    (payload,) = payloads.values()
    return Figure1Result(**payload)


def summarize(result: Figure1Result) -> str:
    return (
        f"peak {result.peak_requests_per_min:,.0f}/min, trough "
        f"{result.trough_requests_per_min:,.0f}/min "
        f"(ratio {result.peak_to_trough:.1f}x), daily autocorrelation "
        f"{result.daily_autocorrelation:.3f}"
    )


def claims(result: Figure1Result) -> list:
    ratio, autocorr = result.peak_to_trough, result.daily_autocorrelation
    peak = result.peak_requests_per_min
    return [
        claim("peak-to-trough ratio", "~10x", f"{ratio:.1f}x", 7.0 <= ratio <= 16.0),
        claim("peak load (requests/min)", "~2.2e4", f"{peak:,.0f}"),
        claim("daily periodicity (lag-1-day autocorrelation)", "strong",
              f"{autocorr:.2f}", autocorr > 0.85),
    ]
