#!/usr/bin/env python
"""Retail-day elasticity: P-Store vs reactive on one simulated day.

Reproduces the mechanism behind Figure 9 at small scale: a single
(compressed) retail day driven through the full DBMS simulator under a
reactive strategy and under P-Store, comparing tail latency and machine
usage.

Run:  python examples/retail_elasticity.py
"""

from __future__ import annotations

from repro.analysis import series_block
from repro.elasticity import PStoreStrategy, ReactiveStrategy
from repro.experiments import benchmark_setup
from repro.experiments.common import sim_payload
from repro.experiments.tab02 import render_sla_table, sla_table
from repro.sim import ElasticDbSimulator


def main() -> None:
    # Four training weeks plus one evaluation day, replayed at 10x speed
    # (a full day passes in 8 640 simulated seconds).
    setup = benchmark_setup(eval_days=1, seed=5)
    config = setup.config
    print(f"evaluation: {setup.offered_tps.size:,} simulated seconds")
    print(series_block("offered load (txn/s)", setup.offered_tps))
    print()

    runs = []
    strategies = {
        "reactive": ReactiveStrategy(config, scale_in_patience=10),
        "p-store": PStoreStrategy(config, setup.spar),
    }
    for name, strategy in strategies.items():
        simulator = ElasticDbSimulator(
            config, max_machines=10, initial_machines=4, seed=7
        )
        history = setup.train_interval_tps if name == "p-store" else []
        result = simulator.run(
            setup.offered_tps, strategy, history_seed_tps=history
        )
        runs.append(result)
        print(f"--- {name} ---")
        print(series_block("machines", result.machines))
        print(series_block("p99 latency (ms)", result.latency.series(99.0)))
        print()

    print(render_sla_table(sla_table(sim_payload(run) for run in runs)))
    reactive, pstore = runs
    total_reactive = sum(reactive.sla_violations().values())
    total_pstore = sum(pstore.sla_violations().values())
    if total_reactive:
        saved = 100.0 * (total_reactive - total_pstore) / total_reactive
        print(f"\nP-Store caused {saved:.0f}% fewer SLA violations "
              f"than the reactive baseline on this day.")


if __name__ == "__main__":
    main()
