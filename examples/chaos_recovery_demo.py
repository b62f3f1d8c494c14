#!/usr/bin/env python
"""Chaos recovery demo: crash a node mid-migration and watch the row-level
cluster abort the move, re-home the dead node's buckets, and move again.

Two drills, each a :class:`~repro.squall.ClusterMigrator` driven directly
under a seeded :class:`~repro.faults.FaultInjector`:

1. a node crash triggered by the first reconfiguration start — at the
   host's next tick the move is aborted, the victim's buckets are
   recovered onto the survivors (nothing is lost), and a fresh scale-out
   starts from the smaller cluster;
2. a stalled transfer lane — the retry watchdog detects the wedged
   migration after the transfer timeout and re-drives it with
   exponential backoff until the lane heals.

Both use the seeded injector, so re-running the script reproduces the
same timeline byte for byte.  ``pstore chaos`` runs the same crash drill
through the tick-level simulator, and ``pstore serve`` is the whole
Sec. 6 loop.

Run:  python examples/chaos_recovery_demo.py
"""

from __future__ import annotations

from repro import PStoreConfig
from repro.benchmark import b2w_schema, load_b2w_data
from repro.faults import (
    FaultInjector,
    FaultScenario,
    FaultSpec,
    crash_during_migration_scenario,
    render_fault_report,
)
from repro.hstore import Cluster
from repro.squall import ClusterMigrator
from repro.telemetry import Telemetry

#: The chronicle records a drill prints, and the fields shown for each.
SHOWN_KINDS = (
    "migration.start", "migration.aborted", "migration.complete",
    "node.add", "node.remove", "fault.injected", "fault.detected",
    "fault.recovered",
)
SHOWN_FIELDS = (
    "before", "after", "nodes", "node", "machines", "reason", "fault_kind",
)


def row_count(cluster: Cluster) -> int:
    return sum(cluster.partition(p).row_count() for p in cluster.partition_ids)


def build(scenario: FaultScenario) -> tuple:
    """A loaded 3-node B2W cluster and its migrator under ``scenario``."""
    config = PStoreConfig(
        interval_seconds=60.0, d_seconds=600.0, database_kb=3000.0,
        partitions_per_node=3,
    )
    cluster = Cluster(b2w_schema(), n_nodes=3, partitions_per_node=3,
                      n_buckets=192)
    load_b2w_data(cluster, n_stock=100, n_carts=200, n_checkouts=20, seed=1)
    # The chronicle is the drill's audit trail; it needs telemetry on.
    telemetry = Telemetry()
    injector = FaultInjector(scenario, telemetry=telemetry)
    migrator = ClusterMigrator(
        cluster, config, telemetry=telemetry, injector=injector
    )
    return migrator, injector, telemetry


def run_to_completion(migrator: ClusterMigrator, dt: float) -> None:
    while migrator.migrating:
        migrator.advance(dt)


def print_chronicle(telemetry: Telemetry) -> None:
    for record in telemetry.chronicle.records:
        if record["kind"] in SHOWN_KINDS:
            fields = " ".join(
                f"{key}={record[key]}" for key in SHOWN_FIELDS
                if record.get(key) not in (None, "")
            )
            print(f"  t={record['time']:5.1f}s  {record['kind']:19s} {fields}")


def crash_drill() -> tuple:
    """Drill 1; returns the cluster and its row count before the drill."""
    migrator, injector, telemetry = build(
        crash_during_migration_scenario(seed=7)
    )
    cluster = migrator.cluster
    rows = row_count(cluster)
    print(f"drill 1: {cluster.n_nodes} nodes, {rows} rows; a scale-out to 6 "
          "starts, and the crash fires as the move starts\n")
    migrator.start_move(6)
    migrator.advance(2.0)                     # the host's next tick
    injector.handle_crashes(
        migrator.sim_time,
        lambda: [n.node_id for n in cluster.nodes],
        lambda victim: migrator.abort(f"node {victim} crashed"),
        migrator.fail_node,
    )
    migrator.start_move(6)                    # re-plan from the survivors
    run_to_completion(migrator, 30.0)
    migrator.allocation.confirm(migrator.sim_time)
    print_chronicle(telemetry)
    print()
    print(render_fault_report(injector.records))
    return cluster, rows


def stall_drill() -> tuple:
    """Drill 2; returns the cluster and its row count before the drill."""
    scenario = FaultScenario(
        faults=(
            FaultSpec(kind="migration_stall", on_migration=1,
                      duration_seconds=120.0, label="wedged-lane"),
        ),
        seed=11,
        name="stall-demo",
    )
    migrator, injector, _ = build(scenario)
    rows = row_count(migrator.cluster)
    print("drill 2: a scale-out to 5 wedges for 120 s; the watchdog "
          "detects the stall and retries with backoff\n")
    migrator.start_move(5)
    run_to_completion(migrator, 7.0)
    print(render_fault_report(injector.records))

    stall = injector.records[0]
    assert stall.recovered_at is not None, "stall never recovered!"
    print(f"\nstall detected {stall.time_to_detect:.0f}s after injection, "
          f"{stall.retries} retries, healed after "
          f"{stall.time_to_recover:.0f}s — migration completed anyway")
    return migrator.cluster, rows


def main() -> None:
    cluster, rows = crash_drill()
    assert row_count(cluster) == rows, "rows lost in recovery!"
    owners = {cluster.plan.owner(b) for b in range(cluster.n_buckets)}
    assert owners <= set(cluster.partition_ids), "a bucket on a dead node!"
    active = [n.node_id for n in cluster.nodes]
    print(f"\nsurvivors {active}: all {rows} rows intact, no row lost; all "
          f"{cluster.n_buckets} buckets still routable\n")

    cluster, rows = stall_drill()
    assert row_count(cluster) == rows, "rows lost under the stall!"
    print(f"{cluster.n_nodes} nodes, all {rows} rows intact, no row lost")


if __name__ == "__main__":
    main()
