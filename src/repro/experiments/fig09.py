"""Experiment: Figure 9 — comparison of elasticity approaches.

Runs the B2W benchmark (3 days at 10x speed, ~26k simulated seconds)
under four provisioning approaches:

* static allocation with 10 machines (peak-provisioned, Fig. 9a);
* static allocation with 4 machines (trough-provisioned, Fig. 9b);
* reactive provisioning in the E-Store style (Fig. 9c);
* P-Store with the SPAR predictive model (Fig. 9d).

The result feeds Figure 10 (tail-latency CDFs) and Table 2 (SLA
violations and machine usage).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..analysis import claim, top_tail_cdf
from ..elasticity import StrategySpec
from ..sim import ElasticDbSimulator, SimulationResult
from .common import (
    BenchmarkSetup,
    benchmark_setup,
    by_cell,
    sim_payload,
    sim_summary,
)

#: Engine seed shared across approaches so they see the same skew.
ENGINE_SEED = 77

#: Fig. 9, Fig. 10 and Table 2 each state "static-10 is best at the
#: tails" on their own metric; this is the one account of why it is false.
STATIC10_NOTE = (
    "false since 5820e47 (PR 3): P-Store beats the peak-provisioned cluster"
)

#: (approach name, strategy spec, initial machines) — the four runs of
#: Fig. 9, also the experiment's sweep-cell grid (reused by Fig. 10 and
#: Table 2).
APPROACH_SPECS = (
    ("static-10", "static:10", 10),
    ("static-4", "static:4", 4),
    ("reactive", "reactive:patience=10", 4),
    ("p-store", "p-store", 4),
)


#: Latencies (ms) at which each run's top-1 % tail CDF is tabulated
#: (Fig. 10 plots these CDFs for the p50, p95 and p99 series).
TAIL_PROBES_MS = (300.0, 500.0, 1000.0, 2000.0, 5000.0)


@dataclass
class Figure9Result:
    """All four runs' payloads, keyed the way the paper names them."""

    runs: Dict[str, dict]

    @property
    def pstore(self) -> dict:
        return self.runs["p-store"]

    @property
    def reactive(self) -> dict:
        return self.runs["reactive"]


def prepare_approach(
    spec: StrategySpec,
    setup: BenchmarkSetup,
    initial_machines: int = 4,
):
    """Build the (simulator, strategy, history) triple for one approach.

    Shared by :func:`run_approach` and both cell runners, so they all
    execute exactly the same construction — the precondition for their
    results being bit-identical.
    """
    config = setup.config
    strategy = spec.build(config, predictor=setup.spar)
    simulator = ElasticDbSimulator(
        config,
        max_machines=10,
        initial_machines=initial_machines,
        seed=ENGINE_SEED,
    )
    history = setup.train_interval_tps if spec.kind == "p-store" else ()
    return simulator, strategy, history


def run_approach(
    spec: StrategySpec,
    setup: BenchmarkSetup,
    initial_machines: int = 4,
) -> SimulationResult:
    """One Fig. 9-style benchmark run for a declarative strategy spec."""
    simulator, strategy, history = prepare_approach(
        spec, setup, initial_machines
    )
    return simulator.run(
        setup.offered_tps, strategy, history_seed_tps=history
    )


# ----------------------------------------------------------------------
# Sweep-cell protocol
# ----------------------------------------------------------------------


def grid(eval_days: int = 3, seed: int = 21) -> List:
    """One cell per provisioning approach (the paper's four runs)."""
    from ..runner import RunSpec

    return [
        RunSpec(
            experiment="fig09",
            cell=name,
            strategy=spec_text,
            seed=seed,
            overrides=(("eval_days", int(eval_days)),),
        )
        for name, spec_text, _ in APPROACH_SPECS
    ]


def initial_machines_for(cell: str) -> int:
    for name, _, initial in APPROACH_SPECS:
        if name == cell:
            return initial
    return 4


def _prepare_cell(spec, config):
    """(simulator, offered, strategy, history) for one sweep cell —
    shared by the serial and tensor cell runners."""
    setup = benchmark_setup(
        eval_days=int(spec.option("eval_days", 3)),
        seed=spec.seed,
        config=config,
    )
    simulator, strategy, history = prepare_approach(
        StrategySpec.parse(spec.strategy),
        setup,
        initial_machines=initial_machines_for(spec.cell),
    )
    return simulator, setup.offered_tps, strategy, history


def cell_payload(result: SimulationResult) -> dict:
    """One run's payload: :func:`sim_payload` plus the CDF of its top
    1 % per-second p50 / p95 / p99 latencies at :data:`TAIL_PROBES_MS`.
    The one payload of both cell runners, so they stay bit-identical."""
    payload = sim_payload(result)
    tails = {}
    for q in (50.0, 95.0, 99.0):
        cdf = top_tail_cdf(result.latency, q, 0.01)
        tails[f"p{int(q)}"] = [cdf.probability_at(p) for p in TAIL_PROBES_MS]
    payload["top1pct_cdf"] = tails
    return payload


def run_cell(spec, config) -> dict:
    """Execute one approach hermetically."""
    simulator, offered, strategy, history = _prepare_cell(spec, config)
    return cell_payload(
        simulator.run(offered, strategy, history_seed_tps=history)
    )


def tensor_cell(spec, config):
    """Build one approach as a :class:`~repro.sim.tensor.TensorProgram`:
    the construction of :func:`run_cell`, returned unstarted so the
    tensor backend can batch it with the other approaches of the grid."""
    from ..sim.tensor import TensorProgram

    simulator, offered, strategy, history = _prepare_cell(spec, config)
    return TensorProgram(
        simulator=simulator,
        offered_tps=offered,
        strategy=strategy,
        history_seed_tps=history,
        label=spec.label,
        finalize=cell_payload,
    )


def fold(payloads) -> Figure9Result:
    return Figure9Result(runs=by_cell(payloads))


def summarize(result: Figure9Result) -> str:
    return "\n".join(
        sim_summary(result.runs[name]) for name, _, _ in APPROACH_SPECS
    )


def claims(result: Figure9Result) -> list:
    pstore = result.pstore
    p99 = {name: run["sla_violations"]["p99"] for name, run in result.runs.items()}
    return [
        claim("P-Store reconfigures ahead of load",
              "capacity line above throughput (9d)",
              f"{pstore['moves_started']} moves, {pstore['emergencies']} emergencies"),
        claim("reactive reconfigures at peak", "latency spikes at each ramp (9c)",
              f"p99 violations {p99['reactive']} vs P-Store {p99['p-store']}",
              p99["p-store"] < p99["reactive"]),
        claim("P-Store avg machines ~ half of peak", "5.05 vs 10",
              f"{pstore['average_machines']:.2f} vs 10",
              pstore["average_machines"] < 0.6 * 10),
        claim("static-10 is best at the tails (p99 violations)", "Fig 9a",
              f"{p99['static-10']} vs P-Store {p99['p-store']}",
              p99["static-10"] <= p99["p-store"], note=STATIC10_NOTE),
    ]
