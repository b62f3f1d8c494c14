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
from ..config import default_config
from ..elasticity import PStoreStrategy, StrategySpec
from ..sim import ElasticDbSimulator, SimulationResult
from ..workload import EventCalendar, LoadEvent, b2w_like_trace
from .common import (
    BENCHMARK_BASE_LEVEL,
    TRAIN_DAYS,
    benchmark_setup,
    sim_payload,
)
from .fig09 import ENGINE_SEED


@dataclass
class Figure11Result:
    """The spike-day runs at rate R and R x 8."""

    regular_rate: SimulationResult     # scale out at R
    boosted_rate: SimulationResult     # scale out at R x 8

    def violation_rows(self) -> Dict[str, Dict[float, int]]:
        return {
            "rate R": self.regular_rate.sla_violations(),
            "rate R x 8": self.boosted_rate.sla_violations(),
        }

    @property
    def boost_reduces_total_violations(self) -> bool:
        total_r = sum(self.regular_rate.sla_violations().values())
        total_8 = sum(self.boosted_rate.sla_violations().values())
        return total_8 < total_r


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


def run_figure11(eval_days: int = 1, seed: int = 33) -> Figure11Result:
    """Run the spike day twice — emergency rate R vs R x 8: the two
    cells of :func:`grid`."""
    regular, boosted = (
        _run(spec, default_config())
        for spec in grid(eval_days, seed)
    )
    return Figure11Result(regular_rate=regular, boosted_rate=boosted)


# ----------------------------------------------------------------------
# Sweep-cell protocol
# ----------------------------------------------------------------------


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
    construction site, shared by the runner and both cell runners."""
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


def _run(spec, config) -> SimulationResult:
    simulator, offered, strategy, history = _prepare_cell(spec, config)
    return simulator.run(offered, strategy, history_seed_tps=history)


def run_cell(spec, config) -> dict:
    return sim_payload(_run(spec, config))


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


def summarize(result: Figure11Result) -> str:
    lines = []
    for label, violations in result.violation_rows().items():
        parts = ", ".join(
            f"p{int(q)}={violations[q]}" for q in sorted(violations)
        )
        lines.append(f"{label}: [{parts}]")
    better = "yes" if result.boost_reduces_total_violations else "no"
    lines.append(f"boosting the rate reduces total violations: {better}")
    return "\n".join(lines)


def claims(result: Figure11Result) -> list:
    regular = result.regular_rate.sla_violations()
    boosted = result.boosted_rate.sla_violations()

    def cells(violations) -> str:
        return "/".join(str(violations[q]) for q in (50.0, 95.0, 99.0))

    return [
        claim("rate R violations (p50/p95/p99)", "16/101/143", cells(regular)),
        claim("rate R x 8 violations", "22/44/51", cells(boosted)),
        claim("boost cuts total violation time", "260 -> 117",
              f"{sum(regular.values())} -> {sum(boosted.values())}",
              result.boost_reduces_total_violations),
        claim("boost cuts p99 violations", "143 -> 51",
              f"{regular[99.0]} -> {boosted[99.0]}", boosted[99.0] < regular[99.0]),
    ]
