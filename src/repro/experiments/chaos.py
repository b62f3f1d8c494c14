"""Experiment: chaos recovery — SLA impact and MTTR under injected faults.

The paper evaluates P-Store on a fault-free cluster.  This experiment
re-runs the compressed B2W benchmark with a :class:`FaultScenario`
injected (node crashes, stragglers, wedged and corrupted transfers,
forecast drift) and measures, for each provisioning strategy under an
*identical* fault schedule:

* SLA violation seconds (the paper's Table 2 metric, now under faults);
* detection latency and mean/max time-to-recover per fault;
* whether the run converged (every fault recovered, cluster feasible).

Predictive provisioning is compared against the reactive baseline: the
interesting result is that prediction keeps headroom provisioned *ahead*
of a fault, so losing a machine hurts less and recovery re-planning
starts from a healthier allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..analysis.report import claim
from ..config import default_config
from ..elasticity import StrategySpec
from ..faults import (
    FaultInjector,
    FaultRecord,
    FaultScenario,
    crash_during_migration_scenario,
    recovery_stats,
    render_fault_report,
)
from ..sim import ElasticDbSimulator
from .common import benchmark_setup, by_cell, sim_payload, violations
from .fig09 import ENGINE_SEED

#: Seed of the canonical crash-during-migration drill.
SCENARIO_SEED = 7


def _drill() -> FaultScenario:
    """The canonical drill: a node crash during the first migration."""
    return crash_during_migration_scenario(migration=1, seed=SCENARIO_SEED)


@dataclass
class ChaosRun:
    """One strategy's run under the scenario: its cell payload (the
    simulation's, plus ``recovery`` stats and the injector's
    ``chronicle``) and, from :func:`run_chaos`, the fault records."""

    label: str
    payload: dict
    records: List[FaultRecord] = field(default_factory=list)

    @property
    def recovery(self) -> dict:
        return self.payload["recovery"]

    @property
    def converged(self) -> bool:
        return self.recovery["converged"]

    @property
    def chronicle(self) -> List[dict]:
        return self.payload["chronicle"]

    def report(self) -> str:
        return render_fault_report(self.records)


@dataclass
class ChaosResult:
    """Runs of every strategy plus the fault-free predictive baseline."""

    scenario: FaultScenario
    runs: Dict[str, ChaosRun]
    baseline: dict

    def violation_rows(self) -> Dict[str, Dict[float, int]]:
        rows = {"p-store (no faults)": violations(self.baseline)}
        for label, run in self.runs.items():
            rows[label] = violations(run.payload)
        return rows

    @property
    def all_converged(self) -> bool:
        return all(run.converged for run in self.runs.values())


#: (cell name, strategy spec, faults enabled) — the three chaos runs.
CHAOS_CELLS = (
    ("baseline", "p-store", False),
    ("p-store", "p-store", True),
    ("reactive", "reactive", True),
)


def grid(eval_days: int = 1, seed: int = 21) -> list:
    """One cell per (strategy, faults on/off) combination."""
    from ..runner import RunSpec

    return [
        RunSpec(
            experiment="chaos",
            cell=name,
            strategy=strategy,
            seed=seed,
            overrides=(
                ("eval_days", int(eval_days)),
                ("faults", bool(faulted)),
            ),
        )
        for name, strategy, faulted in CHAOS_CELLS
    ]


def _run(spec, config, scenario: FaultScenario):
    """Simulate one cell -> (payload, its injector or None): the only
    construction site, shared by ``run_cell`` and :func:`run_chaos`.  A
    faulted cell runs ``scenario``."""
    setup = benchmark_setup(
        eval_days=int(spec.option("eval_days", 1)),
        seed=spec.seed,
        config=config,
    )
    injector = FaultInjector(scenario) if spec.option("faults") else None
    strategy = StrategySpec.parse(spec.strategy).build(config, predictor=setup.spar)
    simulator = ElasticDbSimulator(
        config,
        max_machines=10,
        initial_machines=4,
        seed=ENGINE_SEED,
        injector=injector,
    )
    payload = sim_payload(simulator.run(
        setup.offered_tps, strategy, history_seed_tps=setup.train_interval_tps
    ))
    if injector is not None:
        stats = recovery_stats(injector.records)
        payload["recovery"] = {
            "injected": stats.injected,
            "detected": stats.detected,
            "recovered": stats.recovered,
            "mean_time_to_detect": stats.mean_time_to_detect,
            "mean_time_to_recover": stats.mean_time_to_recover,
            "max_time_to_recover": stats.max_time_to_recover,
            "converged": stats.all_recovered,
        }
        payload["chronicle"] = list(injector.chronicle)
    return payload, injector


def run_cell(spec, config) -> dict:
    """One strategy under the canonical crash-during-migration drill."""
    return _run(spec, config, _drill())[0]


def fold(payloads, scenario: Optional[FaultScenario] = None) -> ChaosResult:
    """The runs of one grid; their faults came from ``scenario`` (the
    canonical drill unless given)."""
    cells = by_cell(payloads)
    baseline = cells.pop("baseline")
    return ChaosResult(
        scenario=scenario or _drill(),
        runs={cell: ChaosRun(cell, payload) for cell, payload in cells.items()},
        baseline=baseline,
    )


def run_chaos(
    scenario: Optional[FaultScenario] = None,
    eval_days: int = 1,
    seed: int = 21,
    include_reactive: bool = True,
) -> ChaosResult:
    """``pstore chaos``: the cells of :func:`grid` under ``scenario`` (a
    user's scenario file is no cacheable cell), run in-process so the
    caller's telemetry records them, and folded with each faulted run's
    fault records.

    Every strategy gets a *fresh* injector built from the same scenario
    (same specs, same seed), so the fault schedules are identical and
    the recovery timelines are directly comparable.
    """
    scenario = scenario or _drill()
    config = default_config()
    payloads, records = {}, {}
    for spec in grid(eval_days, seed):
        if spec.cell == "reactive" and not include_reactive:
            continue
        payloads[spec.label], injector = _run(spec, config, scenario)
        if injector is not None:
            records[spec.cell] = list(injector.records)
    result = fold(payloads, scenario)
    for label, run in result.runs.items():
        run.records = records[label]
    return result


def summarize(result: ChaosResult) -> str:
    lines = [f"scenario: {len(result.scenario.faults)} fault(s)"]
    for label, seconds in result.violation_rows().items():
        parts = ", ".join(f"p{int(q)}={seconds[q]}" for q in sorted(seconds))
        lines.append(f"{label}: [{parts}]")
    lines.append(f"all converged: {result.all_converged}")
    return "\n".join(lines)


def claims(result: ChaosResult) -> list:
    totals = {
        label: sum(violations(run.payload).values())
        for label, run in result.runs.items()
    }
    mttr = result.runs["p-store"].recovery["mean_time_to_recover"]
    rows = [
        claim("every fault recovers, under every strategy",
              "(not in the paper: fault-free evaluation)",
              ", ".join(f"{label} {run.recovery['recovered']}/"
                        f"{run.recovery['injected']}"
                        for label, run in result.runs.items()),
              result.all_converged),
        claim("P-Store mean time to recover", "-",
              "-" if mttr is None else f"{mttr:.1f} s"),
    ]
    if "reactive" in totals:
        rows.append(claim(
            "prediction does not lose to reaction under the same faults",
            "(headroom provisioned ahead of the fault)",
            f"{totals['p-store']} vs {totals['reactive']} violation-seconds",
            totals["p-store"] <= totals["reactive"],
        ))
    return rows
