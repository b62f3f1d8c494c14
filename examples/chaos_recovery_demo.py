#!/usr/bin/env python
"""Chaos recovery demo: crash a node mid-migration and watch P-Store
abort the move, re-home the dead node's buckets, and re-plan.

Two drills over the full row-level service:

1. a node crash triggered by the first reconfiguration start — the
   service aborts the in-flight migration, recovers every bucket onto
   the survivors (nothing is lost), and scales out again from the
   smaller cluster;
2. a stalled transfer lane — the retry watchdog detects the wedged
   migration after the transfer timeout and re-drives it with
   exponential backoff until the lane heals.

Both use the seeded injector, so re-running the script reproduces the
same timeline byte for byte.

Run:  python examples/chaos_recovery_demo.py
"""

from __future__ import annotations

import numpy as np

from repro import PStoreConfig
from repro.benchmark import b2w_schema, load_b2w_data
from repro.core import PStoreService
from repro.faults import (
    FaultInjector,
    FaultScenario,
    FaultSpec,
    crash_during_migration_scenario,
    render_fault_report,
)
from repro.hstore import Cluster
from repro.prediction.base import Predictor
from repro.telemetry import Telemetry


class RampPredictor(Predictor):
    """Demo double: always forecasts the same (high) future level."""

    def __init__(self, level: float):
        super().__init__()
        self.level = level
        self._fitted = True

    @property
    def min_history(self) -> int:
        return 1

    def fit(self, series):
        return self

    def predict_horizon(self, history, horizon):
        return np.full(horizon, self.level)


def row_count(cluster: Cluster) -> int:
    return sum(cluster.partition(p).row_count() for p in cluster.partition_ids)


def build_service(scenario: FaultScenario) -> tuple:
    config = PStoreConfig(
        interval_seconds=60.0, d_seconds=600.0, database_kb=3000.0,
        partitions_per_node=3,
    )
    cluster = Cluster(b2w_schema(), n_nodes=3, partitions_per_node=3,
                      n_buckets=192)
    load_b2w_data(cluster, n_stock=100, n_carts=200, n_checkouts=20, seed=1)
    # The chronicle is the service's audit trail; it needs telemetry on.
    telemetry = Telemetry()
    injector = FaultInjector(scenario, telemetry=telemetry)
    service = PStoreService(
        cluster, config, RampPredictor(config.q * 4.5), max_machines=6,
        injector=injector, telemetry=telemetry,
    )
    return service, injector, telemetry


def drive(service: PStoreService, ticks: int = 40, dt: float = 30.0) -> None:
    for _ in range(ticks):
        service.advance_time(dt)


def main() -> None:
    # --- drill 1: crash during the first migration -------------------------
    service, injector, telemetry = build_service(
        crash_during_migration_scenario(seed=7)
    )
    rows = row_count(service.cluster)
    print(f"drill 1: {service.cluster.n_nodes} nodes, {rows} rows; "
          "a forecast spike forces a scale-out, and the crash fires as "
          "the move starts\n")
    drive(service)

    for record in telemetry.chronicle.records:
        if record["kind"].startswith("service."):
            print(f"  t={record['time']:7.0f}s  "
                  f"{record['kind'][len('service.'):]:18s} {record['detail']}")
    print()
    print(render_fault_report(injector.records))

    active = [n.node_id for n in service.cluster.nodes if n.active]
    assert row_count(service.cluster) == rows, "rows lost in recovery!"
    print(f"\nsurvivors {active}: all {rows} rows intact, all "
          f"{service.cluster.n_buckets} buckets still routable\n")

    # --- drill 2: a wedged transfer lane ------------------------------------
    scenario = FaultScenario(
        faults=(
            FaultSpec(kind="migration_stall", on_migration=1,
                      duration_seconds=120.0, label="wedged-lane"),
        ),
        seed=11,
        name="stall-demo",
    )
    service, injector, _ = build_service(scenario)
    print("drill 2: the first migration wedges for 120 s; the watchdog "
          "detects the stall and retries with backoff\n")
    drive(service)
    print(render_fault_report(injector.records))

    stall = injector.records[0]
    assert stall.recovered_at is not None, "stall never recovered!"
    print(f"\nstall detected {stall.time_to_detect:.0f}s after injection, "
          f"{stall.retries} retries, healed after "
          f"{stall.time_to_recover:.0f}s — migration completed anyway")


if __name__ == "__main__":
    main()
