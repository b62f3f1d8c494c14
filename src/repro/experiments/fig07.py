"""Experiment: Figure 7 — single-machine throughput ramp.

The parameter-discovery experiment of Sec. 8.1: drive one 6-partition
server with a steadily increasing transaction rate and find the
saturation point — the paper measures 438 txn/s, then sets
Q-hat = 350 (80%) and Q = 285 (65%).

We reproduce it with the calibrated queueing engine: offered load ramps
linearly, completed throughput plateaus at saturation, and average
latency explodes past it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.report import claim
from ..elasticity import StaticStrategy
from ..sim import ElasticDbSimulator


@dataclass
class Figure7Result:
    """Derived Q, Q-hat and the latency knee of the throughput ramp."""

    saturation_tps: float          # measured completed-throughput plateau
    q_hat: float                   # 80% of saturation
    q: float                       # 65% of saturation
    latency_knee_tps: float        # offered rate where p99 crosses the SLA


#: Top of the offered-load ramp (txn/s): about twice saturation.
MAX_OFFERED_TPS = 900.0


def grid(duration_seconds: int = 2500, seed: int = 5) -> list:
    from ..runner import RunSpec

    return [
        RunSpec(
            experiment="fig07",
            cell="saturation-ramp",
            seed=seed,
            overrides=(("duration_seconds", int(duration_seconds)),),
        )
    ]


def run_cell(spec, config) -> dict:
    """Ramp a single server from idle to far beyond saturation."""
    duration_seconds = int(spec.option("duration_seconds", 2500))
    offered = np.linspace(10.0, MAX_OFFERED_TPS, duration_seconds)
    simulator = ElasticDbSimulator(
        config,
        max_machines=1,
        initial_machines=1,
        seed=spec.seed,
        engine_kwargs={"hot_episode_rate": 0.0, "skew_sigma": 0.02},
    )
    result = simulator.run(offered, StaticStrategy(1))

    # Saturation = the completed-throughput plateau (mean of the last 5%).
    tail = max(10, duration_seconds // 20)
    saturation = float(result.completed_tps[-tail:].mean())

    over = np.nonzero(result.latency.series(99.0) > config.sla_latency_ms)[0]
    return {
        "saturation_tps": saturation,
        "q_hat": 0.80 * saturation,
        "q": 0.65 * saturation,
        "latency_knee_tps": (
            float(offered[over[0]]) if over.size else float("inf")
        ),
    }


def fold(payloads) -> Figure7Result:
    (payload,) = payloads.values()
    return Figure7Result(**payload)


def summarize(result: Figure7Result) -> str:
    return (
        f"saturation {result.saturation_tps:.0f} txn/s -> "
        f"Q-hat {result.q_hat:.0f}, Q {result.q:.0f}; p99 crosses the SLA "
        f"at {result.latency_knee_tps:.0f} txn/s offered"
    )


def claims(result: Figure7Result) -> list:
    saturation = result.saturation_tps
    return [
        claim("single-node saturation", "438 txn/s", f"{saturation:.0f} txn/s",
              abs(saturation - 438.0) / 438.0 < 0.05,
              note="engine calibrated to the paper's measurement"),
        claim("Q-hat (80% of saturation)", "350 txn/s", f"{result.q_hat:.0f} txn/s"),
        claim("Q (65% of saturation)", "285 txn/s", f"{result.q:.0f} txn/s"),
        claim("SLA knee above Q-hat", "latency safe below Q-hat",
              f"p99 crosses 500 ms at {result.latency_knee_tps:.0f} txn/s",
              result.latency_knee_tps > result.q_hat),
    ]
