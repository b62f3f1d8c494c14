"""Experiment: ``shootout`` — the predictor zoo under drifting workloads.

Not a paper artefact.  The paper evaluates SPAR on stationary-periodic
traces where tomorrow looks like yesterday; this grid asks the opposite
question: *which registered predictor keeps the capacity loop honest
when the generating process changes mid-trace?*  Every cell crosses one
registry predictor (:mod:`repro.prediction.registry`) with one drift
workload (:mod:`repro.workload.drift`):

* predictors are trained on the workload's quiet 7-day prefix only, so
  the regime change is — by construction — outside the training data;
* the remaining 7 days are capacity-simulated through the standard
  ``predictive:<name>`` strategy, scoring both forecast accuracy
  (per-tau MAPE/sMAPE/bias from the :class:`AccuracyTracker`) and the
  end-to-end outcome the paper cares about (machine-slot cost and
  capacity-insufficient slots, the SLA proxy of Fig. 12).

Hourly slots keep each cell well under a second, so the full default
grid (8 predictors x 4 workloads) suits CI smoke jobs and the
serial-vs-parallel bit-identity check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..elasticity import StrategySpec
from ..prediction import get_predictor_spec, registered_predictors
from ..workload import (
    drifting_period_trace,
    growing_amplitude_trace,
    level_shift_trace,
    novel_spike_trace,
)
from .common import by_cell, capacity_payload

#: Hourly planner slots: 24/day, seconds-fast capacity sims.
SHOOTOUT_SLOT_SECONDS = 3600.0
SHOOTOUT_SLOTS_PER_DAY = 24

#: 10 quiet training days + 6 drifting evaluation days.  SPAR at
#: period 24 / n_periods 7 / m_recent 30 needs 222 training slots, so
#: the quiet prefix must cover at least 10 hourly days.
SHOOTOUT_DAYS = 16
SHOOTOUT_TRAIN_DAYS = 10

SHOOTOUT_SEED = 7

#: Scales the hourly drift traces into the same tps regime as the
#: benchmark experiments (peaks near 1.45k txn/s).
SHOOTOUT_BASE_LEVEL = 1250.0 * SHOOTOUT_SLOT_SECONDS

#: Forecast leads scored in the payload (slots ahead = hours here).
SHOOTOUT_TAUS = (1, 3, 6)

#: workload name -> generator.  All four share the quiet-prefix
#: contract: days [0, SHOOTOUT_TRAIN_DAYS) are regime-change-free.
DRIFT_WORKLOADS = {
    "period-drift": drifting_period_trace,
    "amp-growth": growing_amplitude_trace,
    "novel-spike": novel_spike_trace,
    "level-shift": level_shift_trace,
}


@dataclass
class ShootoutResult:
    """Per-cell payloads, keyed by ``workload+predictor``."""

    runs: Dict[str, dict]


def _cell_name(workload: str, predictor: str) -> str:
    return f"{workload}+{predictor}"


def drift_workload_trace(
    workload: str,
    seed: int,
    n_days: int,
    train_days: int = SHOOTOUT_TRAIN_DAYS,
):
    """Build one named drift trace in the benchmark tps regime.

    The quiet (regime-change-free) prefix is pinned to ``train_days``,
    so whatever slice the experiment trains on is drift-free by
    construction and the regime change always lands in the evaluation
    window.
    """
    from ..errors import ConfigurationError

    try:
        builder = DRIFT_WORKLOADS[workload]
    except KeyError:
        raise ConfigurationError(
            f"unknown drift workload {workload!r} "
            f"(expected one of {tuple(DRIFT_WORKLOADS)})"
        ) from None
    kwargs = dict(
        n_days=n_days,
        slot_seconds=SHOOTOUT_SLOT_SECONDS,
        base_level=SHOOTOUT_BASE_LEVEL,
        seed=seed,
    )
    if workload == "level-shift":
        # The step lands two days into the evaluation window.
        kwargs["shift_day"] = min(train_days + 2, n_days - 1)
    else:
        kwargs["quiet_days"] = min(train_days, n_days - 1)
    return builder(**kwargs)


def grid(seed: int = SHOOTOUT_SEED, n_days: int = SHOOTOUT_DAYS) -> List:
    """Drift workloads x registered predictors (4 x 8 = 32 cells)."""
    from ..runner import RunSpec

    return [
        RunSpec(
            experiment="shootout",
            cell=_cell_name(workload, name),
            strategy=f"predictive:{name}",
            seed=seed,
            overrides=(
                ("workload", str(workload)),
                ("n_days", int(n_days)),
            ),
        )
        for workload in DRIFT_WORKLOADS
        for name in registered_predictors()
    ]


def run_cell(spec, config) -> dict:
    """One hermetic predictor-x-workload cell -> JSON payload.

    Runs under a private telemetry scope so the accuracy stats in the
    payload come from this cell alone (cells stay order-independent,
    which is what makes parallel execution bit-identical to serial).
    """
    from ..sim import run_capacity_simulation
    from ..telemetry import AccuracyTracker, MetricsRegistry, Telemetry
    from ..telemetry.runtime import telemetry_scope

    workload = str(spec.option("workload"))
    n_days = int(spec.option("n_days", SHOOTOUT_DAYS))
    config = config.with_interval(SHOOTOUT_SLOT_SECONDS)
    train_days = min(SHOOTOUT_TRAIN_DAYS, n_days - 1)
    trace = drift_workload_trace(
        workload, seed=spec.seed, n_days=n_days, train_days=train_days
    )
    train = trace.slice_days(0, train_days).as_rate_per_second()
    evaluation = trace.slice_days(train_days, n_days - train_days)

    pspec = get_predictor_spec(
        StrategySpec.parse(spec.strategy).predictor_name
    )
    if pspec.needs_truth:
        predictor = pspec.factory(
            np.concatenate([train, evaluation.as_rate_per_second()])
        )
    else:
        predictor = pspec.for_period(SHOOTOUT_SLOTS_PER_DAY).fit(train)

    metrics = MetricsRegistry()
    telemetry = Telemetry(
        metrics=metrics, accuracy=AccuracyTracker(metrics=metrics)
    )
    with telemetry_scope(telemetry):
        strategy = StrategySpec.parse(f"predictive:{pspec.name}").build(
            config,
            predictor=predictor,
            slots_per_day=SHOOTOUT_SLOTS_PER_DAY,
        )
        initial = config.servers_for_load(
            float(evaluation.as_rate_per_second()[0]) * 1.3
        )
        result = run_capacity_simulation(
            evaluation,
            strategy,
            config,
            initial_machines=initial,
            history_seed=[float(v) for v in train],
            telemetry=telemetry,
        )
        accuracy = {}
        for tau in SHOOTOUT_TAUS:
            stats = telemetry.accuracy.errors(pspec.name, tau)
            if stats is None:
                continue
            accuracy[f"tau{tau}"] = {
                key: (
                    round(float(value), 6)
                    if isinstance(value, float)
                    else value
                )
                for key, value in sorted(stats.items())
            }
    payload = capacity_payload(result)
    payload["workload"] = workload
    payload["predictor"] = pspec.name
    payload["accuracy"] = accuracy
    return payload


def fold(payloads) -> ShootoutResult:
    return ShootoutResult(runs=by_cell(payloads))


def summarize(result: ShootoutResult) -> str:
    """Per-workload leaderboard: SLA-insufficient slots, cost, MAPE."""
    by_workload: Dict[str, List[dict]] = {}
    for payload in result.runs.values():
        by_workload.setdefault(payload["workload"], []).append(payload)
    lines = []
    for workload in sorted(by_workload):
        rows = sorted(
            by_workload[workload],
            key=lambda p: (p["insufficient_slots"], p["cost_machine_slots"]),
        )
        spar = next(
            (p for p in rows if p["predictor"] == "spar"), None
        )
        lines.append(f"{workload}:")
        for payload in rows:
            tau1 = payload.get("accuracy", {}).get("tau1") or {}
            mape = tau1.get("mape_pct")
            mape_text = f"{mape:.1f}%" if mape is not None else "-"
            marker = ""
            if (
                spar is not None
                and payload is not spar
                and payload["insufficient_slots"] < spar["insufficient_slots"]
            ):
                marker = "  < spar"
            lines.append(
                f"  {payload['predictor']:<9} "
                f"insufficient={payload['insufficient_slots']:>3} "
                f"cost={payload['cost_machine_slots']:>9.1f} "
                f"mape[t1]={mape_text:<7}{marker}"
            )
    return "\n".join(lines)
