#!/usr/bin/env python
"""Capacity planning: how many machine-hours does prediction save?

Uses the fast capacity simulator (the paper's Sec. 8.3 methodology) to
compare static peak provisioning, a clock-driven schedule, a reactive
controller, and P-Store over a three-week retail workload, reporting
cost (machine-slots) and the % of time with insufficient capacity.

Run:  python examples/capacity_planning.py
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis import ascii_table
from repro.elasticity import (
    PStoreStrategy,
    ReactiveStrategy,
    SimpleStrategy,
    StaticStrategy,
)
from repro.prediction import SparPredictor
from repro.sim import run_capacity_simulation
from repro.workload import b2w_like_trace


def main() -> None:
    from repro import default_config

    config = default_config().with_interval(300.0)
    full = b2w_like_trace(
        n_days=28 + 21,
        slot_seconds=300.0,
        seed=17,
        base_level=1250.0 * 300.0,
    )
    train, evaluation = full.slice_days(0, 28), full.slice_days(28, 21)
    train_tps = train.as_rate_per_second()
    eval_tps = evaluation.as_rate_per_second()
    peak = float(np.percentile(eval_tps, 99.0))
    peak_machines = math.ceil(peak / config.q)

    spar = SparPredictor(period=288, n_periods=7, m_recent=30).fit(train_tps)
    initial = max(1, math.ceil(eval_tps[0] * 1.3 / config.q))

    runs = {}
    runs["static-peak"] = run_capacity_simulation(
        evaluation, StaticStrategy(peak_machines), config, peak_machines
    )
    runs["simple"] = run_capacity_simulation(
        evaluation,
        SimpleStrategy(peak_machines, max(1, peak_machines // 3),
                       slots_per_day=288),
        config,
        initial_machines=max(1, peak_machines // 3),
    )
    runs["reactive"] = run_capacity_simulation(
        evaluation, ReactiveStrategy(config, scale_in_patience=12), config, initial
    )
    runs["p-store"] = run_capacity_simulation(
        evaluation,
        PStoreStrategy(config, spar),
        config,
        initial,
        history_seed=list(train_tps),
    )

    baseline = runs["static-peak"].cost_machine_slots
    rows = []
    for name, result in runs.items():
        rows.append(
            (
                name,
                f"{result.average_machines:.2f}",
                f"{result.cost_machine_slots / baseline:.2f}",
                f"{result.pct_time_insufficient:.2f}%",
                result.moves_started,
            )
        )
    print(
        ascii_table(
            ["strategy", "avg machines", "cost vs static", "% insufficient", "moves"],
            rows,
            title=f"Three retail weeks, peak {peak:,.0f} txn/s "
            f"({peak_machines} machines at Q)",
        )
    )
    saved = 100.0 * (1.0 - runs["p-store"].cost_machine_slots / baseline)
    print(
        f"\nP-Store served the same workload with {saved:.0f}% fewer "
        f"machine-hours than static peak provisioning."
    )


if __name__ == "__main__":
    main()
