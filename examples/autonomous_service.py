#!/usr/bin/env python
"""Autonomous service: P-Store managing a live cluster end to end.

This drives :class:`repro.core.PStoreService` — the "Putting It All
Together" glue of Section 6 — on the row-level substrate: transactions
flow in, the service measures load per interval, learns a predictor
online, plans with the DP algorithm, migrates buckets with the Squall
engine, and (as the paper's future-work section proposes) rebalances hot
buckets between reconfigurations.

Run:  python examples/autonomous_service.py
"""

from __future__ import annotations

import numpy as np

from repro import default_config
from repro.benchmark import B2WDriver, b2w_schema, load_b2w_data
from repro.core import PStoreService
from repro.prediction import OnlinePredictor, SeasonalNaivePredictor
from repro.telemetry import Telemetry


def main() -> None:
    config = default_config().with_interval(60.0)
    from repro.hstore import Cluster

    cluster = Cluster(b2w_schema(), n_nodes=2, partitions_per_node=6,
                      n_buckets=768)
    load_b2w_data(cluster, n_stock=500, n_carts=1500, n_checkouts=150, seed=8)

    # An online predictor: no training data up-front, learns as it goes.
    predictor = OnlinePredictor(
        SeasonalNaivePredictor(period=30),   # a 30-minute "day" for the demo
        refit_every=10,
        min_training=35,
    )
    # The chronicle is the service's audit trail; it needs telemetry on.
    telemetry = Telemetry()
    service = PStoreService(
        cluster,
        config,
        predictor,
        max_machines=6,
        skew_rebalancing=True,
        skew_threshold_share=0.30,
        telemetry=telemetry,
    )
    driver = B2WDriver(service.executor, n_stock=500, seed=9)

    # A compressed "daily" cycle: 30-minute period, load swinging between
    # ~0.4 and ~3.2 machines' worth of traffic.
    q = config.q
    minutes = 75
    print(f"driving {minutes} minutes of cyclic traffic "
          f"(Q = {q:.0f} txn/s per machine)\n")
    for minute in range(minutes):
        phase = 2.0 * np.pi * minute / 30.0
        rate = q * (1.8 - 1.4 * np.cos(phase))
        for second in range(60):
            now = minute * 60.0 + second
            # The driver issues directly via the service's executor; the
            # service only needs the counts, which we record through one
            # representative monitored call per batch.
            issued = driver.run_second(now, rate / 60.0 * 59.0)
            service.monitor.record(now, count=float(issued))
        service.advance_time(60.0)
        if minute % 5 == 4:
            print(f"  [{minute + 1:>3} min] rate ~{rate:6,.0f} txn/s  "
                  + service.status())

    print("\nprovisioning events:")
    for record in telemetry.chronicle.records:
        if record["kind"].startswith("service."):
            print(f"  t={record['time']:>6,.0f}s  "
                  f"{record['kind'][len('service.'):]:<13} {record['detail']}")

    rows = sum(
        cluster.partition(p).row_count() for p in cluster.partition_ids
    )
    print(f"\nfinal: {service.machines} machines, {rows:,} rows, "
          f"{service.executor.committed:,} txns committed, "
          f"{service.executor.aborted} aborted")


if __name__ == "__main__":
    main()
