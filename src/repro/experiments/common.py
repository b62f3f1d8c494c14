"""Shared setup for the paper's evaluation experiments (Section 8).

The paper replays B2W's trace at 10x speed against a 10-node H-Store
cluster; these helpers build the equivalent synthetic setup:

* a B2W-like trace calibrated so the benchmark peak sits near 1.45k
  txn/s — just above the maximum throughput of the 4-machine static
  baseline (4 x Q-hat = 1.4k), exactly the regime of Figs. 9a-9d;
* the 10x time compression (one simulated day lasts 8 640 s);
* a SPAR predictor fitted on the four preceding (compressed) weeks at
  the 60 s planner-interval granularity.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass
from typing import List

import numpy as np

from ..config import PStoreConfig, canonical_json, default_config
from ..prediction import SparPredictor
from ..workload import LoadTrace, b2w_like_trace

logger = logging.getLogger(__name__)

#: Requests per 60 s slot at the daily peak (before compression); the
#: 10x-compressed replay then peaks near 1 450 txn/s.
BENCHMARK_BASE_LEVEL = 1250.0 * 6.0

#: The paper replays a full day of traffic in 2.4 hours.
SPEEDUP = 10.0

#: Compressed planner intervals per day: 8 640 s / 60 s.
INTERVALS_PER_DAY = 144

#: Training window, matching "we train our prediction model using
#: 4-weeks' worth of historical B2W data".
TRAIN_DAYS = 28


@dataclass
class BenchmarkSetup:
    """Everything a Fig. 9-style experiment needs."""

    config: PStoreConfig
    offered_tps: np.ndarray          # one sample per compressed second
    train_interval_tps: List[float]  # per planner interval, for history seeding
    eval_trace: LoadTrace
    spar: SparPredictor


def interval_rates(trace: LoadTrace, interval_seconds: float = 60.0) -> np.ndarray:
    """Aggregate a compressed trace to mean tps per planner interval."""
    per_interval = int(round(interval_seconds / trace.slot_seconds))
    usable = (len(trace) // per_interval) * per_interval
    counts = trace.values[:usable].reshape(-1, per_interval).sum(axis=1)
    return counts / interval_seconds


def benchmark_setup(
    eval_days: int = 3,
    seed: int = 21,
    base_level: float = BENCHMARK_BASE_LEVEL,
    config: PStoreConfig | None = None,
    trace: LoadTrace | None = None,
) -> BenchmarkSetup:
    """Build the compressed benchmark workload plus a fitted SPAR model.

    ``trace``, when given, replaces the default B2W-like generator (the
    Fig. 11 experiment passes a trace with an unexpected spike in the
    evaluation window).  It must cover ``TRAIN_DAYS + eval_days`` days at
    60 s slots.
    """
    config = config or default_config()
    if trace is None:
        trace = b2w_like_trace(
            n_days=TRAIN_DAYS + eval_days,
            slot_seconds=60.0,
            seed=seed,
            base_level=base_level,
        )
    train_full = trace.slice_days(0, TRAIN_DAYS)
    eval_full = trace.slice_days(TRAIN_DAYS, eval_days)

    eval_compressed = eval_full.compressed(SPEEDUP)
    train_compressed = train_full.compressed(SPEEDUP)
    train_tps = interval_rates(train_compressed, config.interval_seconds)

    logger.info(
        "benchmark setup: %d eval days, %d training intervals, seed %d",
        eval_days, len(train_tps), seed,
    )
    spar = SparPredictor(
        period=INTERVALS_PER_DAY, n_periods=7, m_recent=30
    ).fit(train_tps)
    return BenchmarkSetup(
        config=config,
        offered_tps=eval_compressed.per_second_rates(),
        train_interval_tps=[float(v) for v in train_tps],
        eval_trace=eval_compressed,
        spar=spar,
    )


# ----------------------------------------------------------------------
# Sweep-cell helpers.  Every experiment module exposes ``grid()`` (its
# cell decomposition as RunSpec objects) and ``run_cell(spec, config)``
# (one hermetic cell -> JSON payload); these helpers keep the payloads
# uniform so cache entries and bit-identity checks mean the same thing
# everywhere.
# ----------------------------------------------------------------------


def series_digest(values) -> str:
    """Short deterministic digest of a numeric series.

    Cell payloads carry digests instead of full per-second arrays: the
    digest pins bit-identity (parallel vs serial, cached vs fresh) while
    keeping cache entries a few hundred bytes.
    """
    as_floats = np.asarray(values, dtype=float).ravel().tolist()
    blob = canonical_json(as_floats).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def sim_payload(result) -> dict:
    """Canonical JSON payload for an :class:`ElasticDbSimulator` run."""
    violations = result.sla_violations()
    return {
        "strategy": result.strategy_name,
        "seconds": result.seconds,
        "sla_ms": float(result.sla_ms),
        "average_machines": round(result.average_machines, 9),
        "emergencies": int(result.emergencies),
        "moves_started": int(result.moves_started),
        "sla_violations": {
            f"p{int(q)}": int(n) for q, n in sorted(violations.items())
        },
        "series_sha": {
            "machines": series_digest(result.machines),
            "completed_tps": series_digest(result.completed_tps),
            "p99_ms": series_digest(result.latency.series(99.0)),
        },
    }


def capacity_payload(result) -> dict:
    """Canonical JSON payload for a :class:`CapacitySimulator` run."""
    return {
        "strategy": result.strategy_name,
        "slots": result.n_slots,
        "cost_machine_slots": round(result.cost_machine_slots, 9),
        "average_machines": round(result.average_machines, 9),
        "insufficient_slots": int(result.insufficient_slots),
        "pct_time_insufficient": round(result.pct_time_insufficient, 9),
        "emergencies": int(result.emergencies),
        "moves_started": int(result.moves_started),
        "series_sha": {
            "machines": series_digest(result.machines),
            "eff_cap_max": series_digest(result.eff_cap_max),
        },
    }


# ----------------------------------------------------------------------
# Fold helpers: an experiment's ``fold(payloads)`` reads its grid's
# ``{label: payload}`` through these, so a report rendered from cached
# payloads reads exactly like one rendered from the runs themselves.
# ----------------------------------------------------------------------


def by_cell(payloads) -> dict:
    """``{label: payload}`` re-keyed by cell name (a label is
    ``experiment/cell#seed``), in grid order."""
    return {
        label.split("/", 1)[1].rsplit("#", 1)[0]: payload
        for label, payload in payloads.items()
    }


def violations(payload) -> dict:
    """A :func:`sim_payload`'s SLA violation seconds keyed by percentile
    (``{50.0: n, ...}``), as ``SimulationResult.sla_violations`` has them."""
    return {float(key[1:]): n for key, n in payload["sla_violations"].items()}


def sim_summary(payload) -> str:
    """``SimulationResult.summary`` of the run a :func:`sim_payload` is."""
    parts = ", ".join(
        f"p{int(q)}={n}" for q, n in sorted(violations(payload).items())
    )
    return (
        f"{payload['strategy']}: SLA violations [{parts}] "
        f"avg machines {payload['average_machines']:.2f} "
        f"({payload['moves_started']} moves, "
        f"{payload['emergencies']} emergency)"
    )


def capacity_summary(payload) -> str:
    """``CapacitySimResult.summary`` of the run a
    :func:`capacity_payload` is."""
    return (
        f"{payload['strategy']}: avg machines "
        f"{payload['average_machines']:.2f}, insufficient "
        f"{payload['pct_time_insufficient']:.2f}% of time, "
        f"{payload['moves_started']} moves "
        f"({payload['emergencies']} emergency)"
    )
