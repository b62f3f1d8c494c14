"""Experiment: Figure 11 — reacting to an unexpected load spike.

When predictions are wrong (a flash crowd), P-Store's planner finds no
feasible schedule and falls back to a reactive scale-out, either at the
regular migration rate R or at R x 8.  The paper (a September 2016 spike
day) reports violations of 16/101/143 (p50/p95/p99) at rate R versus
22/44/51 at R x 8: boosting the rate hurts median latency slightly but
cuts total violation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..analysis.report import claim
from ..elasticity import PStoreStrategy, StrategySpec
from ..sim import ElasticDbSimulator
from ..workload import EventCalendar, LoadEvent, b2w_like_trace
from .common import (
    BENCHMARK_BASE_LEVEL,
    TRAIN_DAYS,
    benchmark_setup,
    sim_payload,
    violations,
)
from .fig09 import ENGINE_SEED


@dataclass
class Figure11Result:
    """SLA violation seconds of the spike-day runs, by percentile."""

    regular_rate: Dict[float, int]     # scale out at R
    boosted_rate: Dict[float, int]     # scale out at R x 8

    def violation_rows(self) -> Dict[str, Dict[float, int]]:
        return {"rate R": self.regular_rate, "rate R x 8": self.boosted_rate}

    @property
    def boost_reduces_total_violations(self) -> bool:
        return sum(self.boosted_rate.values()) < sum(self.regular_rate.values())


#: Peak of the unexpected spike, as a multiple of the normal load.
SPIKE_MAGNITUDE = 2.2


def _spike_trace(eval_days: int, seed: int):
    """A benchmark trace whose *evaluation* window contains a flash
    spike the training data has never seen."""
    n_days = TRAIN_DAYS + eval_days
    slots_per_day = 1440
    spike_day = TRAIN_DAYS + eval_days / 2.0
    calendar = EventCalendar(
        [
            LoadEvent(
                start_slot=int(spike_day * slots_per_day),
                duration_slots=int(0.25 * slots_per_day),
                magnitude=SPIKE_MAGNITUDE,
                shape="spike",
                label="unexpected-spike",
            )
        ]
    )
    return b2w_like_trace(
        n_days=n_days,
        slot_seconds=60.0,
        seed=seed,
        base_level=BENCHMARK_BASE_LEVEL,
        calendar=calendar,
        name="b2w-flash-crowd",
    )


def grid(eval_days: int = 1, seed: int = 33) -> list:
    from ..runner import RunSpec

    return [
        RunSpec(
            experiment="fig11",
            cell=cell,
            strategy=f"p-store:emergency_rate={multiplier}",
            seed=seed,
            overrides=(("eval_days", int(eval_days)),),
        )
        for cell, multiplier in (("rate-R", 1.0), ("rate-Rx8", 8.0))
    ]


def _prepare_cell(spec, config):
    """(simulator, offered, strategy, history) for one cell — the only
    construction site, shared by both cell runners."""
    eval_days = int(spec.option("eval_days", 1))
    trace = _spike_trace(eval_days, spec.seed)
    setup = benchmark_setup(eval_days=eval_days, config=config, trace=trace)
    parsed = StrategySpec.parse(spec.strategy)
    multiplier = float(parsed.param("emergency_rate", 1.0))
    strategy = PStoreStrategy(
        config,
        setup.spar,
        emergency_rate_multiplier=multiplier,
        name=f"p-store-R{'' if multiplier == 1 else 'x8'}",
    )
    simulator = ElasticDbSimulator(
        config, max_machines=10, initial_machines=4, seed=ENGINE_SEED
    )
    return simulator, setup.offered_tps, strategy, setup.train_interval_tps


def run_cell(spec, config) -> dict:
    simulator, offered, strategy, history = _prepare_cell(spec, config)
    return sim_payload(
        simulator.run(offered, strategy, history_seed_tps=history)
    )


def tensor_cell(spec, config):
    """One spike-day cell as a :class:`~repro.sim.tensor.TensorProgram`."""
    from ..sim.tensor import TensorProgram

    simulator, offered, strategy, history = _prepare_cell(spec, config)
    return TensorProgram(
        simulator=simulator,
        offered_tps=offered,
        strategy=strategy,
        history_seed_tps=history,
        label=spec.label,
        finalize=sim_payload,
    )


def fold(payloads) -> Figure11Result:
    regular, boosted = (violations(p) for p in payloads.values())
    return Figure11Result(regular_rate=regular, boosted_rate=boosted)


def summarize(result: Figure11Result) -> str:
    lines = []
    for label, seconds in result.violation_rows().items():
        parts = ", ".join(f"p{int(q)}={seconds[q]}" for q in sorted(seconds))
        lines.append(f"{label}: [{parts}]")
    better = "yes" if result.boost_reduces_total_violations else "no"
    lines.append(f"boosting the rate reduces total violations: {better}")
    return "\n".join(lines)


def claims(result: Figure11Result) -> list:
    regular, boosted = result.regular_rate, result.boosted_rate

    def cells(seconds) -> str:
        return "/".join(str(seconds[q]) for q in (50.0, 95.0, 99.0))

    return [
        claim("rate R violations (p50/p95/p99)", "16/101/143", cells(regular)),
        claim("rate R x 8 violations", "22/44/51", cells(boosted)),
        claim("boost cuts total violation time", "260 -> 117",
              f"{sum(regular.values())} -> {sum(boosted.values())}",
              result.boost_reduces_total_violations),
        claim("boost cuts p99 violations", "143 -> 51",
              f"{regular[99.0]} -> {boosted[99.0]}", boosted[99.0] < regular[99.0]),
    ]
