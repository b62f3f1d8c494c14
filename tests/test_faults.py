"""Tests for the chaos layer: fault specs, the seeded injector, retry
policy, and end-to-end crash recovery (cluster, migrator,
simulator)."""

import json

import numpy as np
import pytest

from repro.config import FaultConfig, PStoreConfig, default_config
from repro.errors import CatalogError, FaultError
from repro.faults import (
    FaultInjector,
    FaultScenario,
    FaultSpec,
    crash_during_migration_scenario,
    injector_from_config,
    recovery_stats,
    render_fault_report,
)
from repro.hstore import Cluster, Column, Schema, Table
from repro.sim import ElasticDbSimulator
from repro.squall import ClusterMigrator
from repro.telemetry import Telemetry

from .fixtures import mixed_chaos_scenario


def kv_cluster(nodes=3, ppn=2, buckets=120, rows=600):
    schema = Schema(
        [
            Table(
                "kv",
                [Column("k", "str"), Column("v", "int", nullable=True)],
                primary_key="k",
            )
        ]
    )
    cluster = Cluster(schema, nodes, ppn, buckets)
    for i in range(rows):
        cluster.insert("kv", {"k": f"key-{i}", "v": i})
    return cluster


def total_rows(cluster):
    return sum(cluster.partition(p).row_count() for p in cluster.partition_ids)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError):
            FaultSpec(kind="meteor_strike", at_time=0.0)

    def test_exactly_one_trigger_required(self):
        with pytest.raises(FaultError):
            FaultSpec(kind="node_crash")  # neither
        with pytest.raises(FaultError):
            FaultSpec(kind="node_crash", at_time=1.0, on_migration=1)  # both

    def test_negative_time_rejected(self):
        with pytest.raises(FaultError):
            FaultSpec(kind="node_crash", at_time=-1.0)

    def test_on_migration_counts_from_one(self):
        with pytest.raises(FaultError):
            FaultSpec(kind="node_crash", on_migration=0)

    def test_windowed_kinds_need_duration(self):
        with pytest.raises(FaultError):
            FaultSpec(kind="migration_stall", at_time=0.0)
        with pytest.raises(FaultError):
            FaultSpec(kind="forecast_drift", at_time=0.0, magnitude=0.5)

    def test_slowdown_needs_target_and_sane_multiplier(self):
        with pytest.raises(FaultError):
            FaultSpec(kind="node_slowdown", at_time=0.0, duration_seconds=10.0)
        with pytest.raises(FaultError):
            FaultSpec(
                kind="node_slowdown", at_time=0.0, node=0,
                duration_seconds=10.0, capacity_multiplier=1.5,
            )

    def test_drift_magnitude_positive(self):
        with pytest.raises(FaultError):
            FaultSpec(
                kind="forecast_drift", at_time=0.0,
                duration_seconds=10.0, magnitude=0.0,
            )

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(FaultError):
            FaultSpec.from_dict({"kind": "node_crash", "at_time": 0.0,
                                 "blast_radius": 2})


class TestFaultScenario:
    def test_round_trip_via_dict(self):
        scenario = mixed_chaos_scenario(crash_time=1000.0)
        clone = FaultScenario.from_dict(scenario.to_dict())
        assert clone == scenario

    def test_from_file(self, tmp_path):
        path = tmp_path / "chaos.json"
        path.write_text(json.dumps({
            "name": "drill",
            "seed": 3,
            "faults": [{"kind": "node_crash", "on_migration": 1}],
        }))
        scenario = FaultScenario.from_file(path)
        assert scenario.name == "drill"
        assert len(scenario) == 1
        assert scenario.faults[0].on_migration == 1

    def test_from_file_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FaultError):
            FaultScenario.from_file(path)

    def test_from_file_missing_file(self, tmp_path):
        with pytest.raises(FaultError):
            FaultScenario.from_file(tmp_path / "nope.json")

    def test_unknown_scenario_keys_rejected(self):
        with pytest.raises(FaultError):
            FaultScenario.from_dict({"faults": [], "blast": True})

    def test_builtin_drills(self):
        drill = crash_during_migration_scenario(migration=2)
        assert drill.faults[0].on_migration == 2
        assert len(mixed_chaos_scenario(crash_time=1000.0)) == 4


class TestRetryPolicy:
    """The retry fields of the ``faults`` config section (their
    validation is in test_config.py)."""

    def test_should_retry_honours_max_attempts(self):
        policy = FaultConfig(max_attempts=3)
        assert policy.should_retry(1) and policy.should_retry(3)
        assert not policy.should_retry(4)

    def test_backoff_grows_exponentially(self):
        policy = FaultConfig(base_backoff_seconds=2.0, backoff_multiplier=3.0,
                             jitter_fraction=0.0)
        assert policy.backoff_seconds(1) == pytest.approx(2.0)
        assert policy.backoff_seconds(2) == pytest.approx(6.0)
        assert policy.backoff_seconds(3) == pytest.approx(18.0)

    def test_jitter_stays_within_fraction(self):
        policy = FaultConfig(base_backoff_seconds=10.0, jitter_fraction=0.2)
        rng = np.random.default_rng(0)
        for attempt in (1, 2, 3):
            base = policy.backoff_seconds(attempt)
            for _ in range(20):
                jittered = policy.backoff_seconds(attempt, rng)
                assert 0.8 * base <= jittered <= 1.2 * base

    def test_from_config(self):
        """The migrator's stall watchdog reads ``config.faults``."""
        cfg = PStoreConfig(
            database_kb=6000.0, d_seconds=600.0,
            faults=FaultConfig(max_attempts=2, transfer_timeout_seconds=7.0),
        )
        injector = FaultInjector([
            FaultSpec(kind="migration_stall", on_migration=1,
                      duration_seconds=120.0),
        ])
        migrator = ClusterMigrator(kv_cluster(), cfg, injector=injector)
        migrator.start_move(5)
        drive_to_completion(migrator)
        record = injector.records[0]
        assert record.detected_at == pytest.approx(record.injected_at + 7.0)
        assert record.retries == 2


class TestInjectorLifecycle:
    def test_timed_fault_fires_on_advance(self):
        injector = FaultInjector([FaultSpec(kind="node_crash", at_time=50.0)])
        assert injector.advance(49.0) == []
        fired = injector.advance(50.0)
        assert [r.kind for r in fired] == ["node_crash"]
        assert injector.take_new_crashes() == fired
        assert injector.take_new_crashes() == []  # consumed

    def test_clock_is_monotone(self):
        """A lagging subsystem clock must not rewind the injector."""
        injector = FaultInjector([FaultSpec(kind="node_crash", at_time=100.0)])
        injector.advance(150.0)
        injector.advance(10.0)  # no-op, no error
        assert injector.now == 150.0
        assert len(injector.records) == 1

    def test_migration_trigger_counts_starts(self):
        injector = FaultInjector(crash_during_migration_scenario(migration=2))
        assert injector.notify_migration_started(10.0) == []
        fired = injector.notify_migration_started(20.0)
        assert len(fired) == 1
        assert fired[0].injected_at == 20.0

    def test_windowed_fault_auto_recovers(self):
        injector = FaultInjector([
            FaultSpec(kind="node_slowdown", at_time=10.0, node=1,
                      duration_seconds=30.0, capacity_multiplier=0.5),
        ])
        injector.advance(10.0)
        assert injector.capacity_multiplier(1) == pytest.approx(0.5)
        assert injector.capacity_multiplier(0) == 1.0
        injector.advance(40.0)
        record = injector.records[0]
        assert record.recovered_at == pytest.approx(40.0)
        assert injector.capacity_multiplier(1) == 1.0

    def test_forecast_multiplier_is_product_of_windows(self):
        injector = FaultInjector([
            FaultSpec(kind="forecast_drift", at_time=0.0,
                      duration_seconds=100.0, magnitude=0.5),
            FaultSpec(kind="forecast_drift", at_time=0.0,
                      duration_seconds=100.0, magnitude=0.4),
        ])
        injector.advance(0.0)
        assert injector.forecast_multiplier() == pytest.approx(0.2)

    def test_resolve_crash_prefers_spec_target(self):
        injector = FaultInjector([
            FaultSpec(kind="node_crash", at_time=0.0, node=2),
        ])
        (record,) = injector.advance(0.0)
        assert injector.resolve_crash_node(record, [0, 1, 2, 3]) == 2
        assert record.node == 2

    def test_resolve_crash_pick_is_seeded(self):
        def pick(seed):
            injector = FaultInjector(
                [FaultSpec(kind="node_crash", at_time=0.0)], seed=seed
            )
            (record,) = injector.advance(0.0)
            return injector.resolve_crash_node(record, range(8))

        assert pick(11) == pick(11)

    def test_chronicle_records_full_lifecycle(self):
        injector = FaultInjector([FaultSpec(kind="node_crash", at_time=5.0)])
        (record,) = injector.advance(5.0)
        injector.mark_detected(record, 6.0)
        injector.mark_detected(record, 99.0)  # idempotent
        injector.mark_retry(record, 7.0, backoff_seconds=2.0)
        injector.mark_recovered(record, 8.0)
        events = [entry["event"] for entry in injector.chronicle]
        assert events == ["fault.injected", "fault.detected", "fault.retry",
                          "fault.recovered"]
        assert record.time_to_detect == pytest.approx(1.0)
        assert record.time_to_recover == pytest.approx(3.0)
        stats = recovery_stats(injector.records)
        assert stats.all_recovered
        assert "node_crash" in render_fault_report(injector.records)

    def test_next_change(self):
        injector = FaultInjector([
            FaultSpec(kind="forecast_drift", at_time=10.0,
                      duration_seconds=20.0, magnitude=0.5),
            FaultSpec(kind="transfer_corruption", at_time=12.5),
        ])
        assert injector.next_change(0.0) == 10.0
        injector.advance(10.0)
        assert injector.next_change(10.0) == 12.5
        assert injector.take_corruption() is None
        injector.advance(12.5)
        assert injector.next_change(12.5) == 30.0
        injector.advance(30.0)
        assert injector.next_change(30.0) == float("inf")
        assert injector.take_corruption().spec.kind == "transfer_corruption"
        assert injector.take_corruption() is None

    def test_injector_from_config(self, tmp_path):
        assert injector_from_config(default_config()) is None
        with pytest.raises(FaultError):
            injector_from_config(
                PStoreConfig.from_dict({"faults": {"enabled": True}})
            )
        path = tmp_path / "drill.json"
        path.write_text(json.dumps(
            crash_during_migration_scenario(seed=5).to_dict()
        ))
        cfg = PStoreConfig.from_dict(
            {"faults": {"enabled": True, "scenario": str(path), "seed": 9}}
        )
        injector = injector_from_config(cfg)
        assert injector is not None
        assert injector.seed == 9  # config seed overrides the file's


class TestFailNode:
    def test_zero_lost_buckets_and_rows(self):
        cluster = kv_cluster(nodes=3)
        all_buckets = {
            b for p in cluster.partition_ids for b in cluster.plan.buckets_of(p)
        }
        dead_partitions = set(
            next(n for n in cluster.nodes if n.node_id == 1).partition_ids
        )
        summary = cluster.fail_node(1)
        survivors = {
            b
            for p in cluster.partition_ids
            if p not in dead_partitions
            for b in cluster.plan.buckets_of(p)
        }
        assert survivors == all_buckets  # nothing lost, nothing duplicated
        assert summary["buckets_moved"] > 0
        assert summary["survivors"] == 2
        assert total_rows(cluster) == 600
        assert cluster.get("kv", "key-123")["v"] == 123

    def test_cannot_fail_last_node(self):
        cluster = kv_cluster(nodes=1)
        with pytest.raises(CatalogError):
            cluster.fail_node(0)

    def test_cannot_fail_unknown_or_dead_node(self):
        cluster = kv_cluster(nodes=3)
        with pytest.raises(CatalogError):
            cluster.fail_node(17)
        cluster.fail_node(2)
        with pytest.raises(CatalogError):
            cluster.fail_node(2)


def drive_to_completion(migrator, dt=10.0, limit=100_000.0):
    elapsed = 0.0
    while migrator.migrating:
        migrator.advance(dt)
        elapsed += dt
        assert elapsed < limit, "migration never completed"
    return elapsed


class TestMigratorFaults:
    def small_config(self):
        # tiny database so moves finish in simulated minutes
        return PStoreConfig(database_kb=6000.0, d_seconds=600.0)

    def test_stall_detected_retried_and_recovered(self):
        injector = FaultInjector([
            FaultSpec(kind="migration_stall", on_migration=1,
                      duration_seconds=120.0),
        ])
        cluster = kv_cluster()
        migrator = ClusterMigrator(cluster, self.small_config(),
                                   injector=injector)
        migrator.start_move(5)
        drive_to_completion(migrator)
        record = injector.records[0]
        assert record.detected_at == pytest.approx(
            record.injected_at + 30.0  # default transfer timeout
        )
        assert record.retries >= 1
        assert record.recovered_at == pytest.approx(record.ends_at)
        assert cluster.n_nodes == 5
        assert total_rows(cluster) == 600

    def test_rounds_are_stamped_after_the_stall(self):
        """A wedged transfer holds its round: the first round lands after
        the stall recovers, and the rounds after it one round apart."""
        telemetry = Telemetry()
        injector = FaultInjector(
            [FaultSpec(kind="migration_stall", on_migration=1,
                       duration_seconds=120.0)],
            telemetry=telemetry,
        )
        migrator = ClusterMigrator(
            kv_cluster(), self.small_config(), telemetry=telemetry,
            injector=injector,
        )
        migration = migrator.start_move(5)
        drive_to_completion(migrator, dt=7.0)
        stamps = [
            r["time"] for r in telemetry.chronicle.by_kind("migration.round")
        ]
        (recovered,) = telemetry.chronicle.by_kind("fault.recovered")
        assert recovered["time"] == 120.0
        assert len(stamps) == migration.schedule.n_rounds
        assert stamps[0] == pytest.approx(120.0 + migration.round_seconds)
        assert np.allclose(np.diff(stamps), migration.round_seconds)
        (complete,) = telemetry.chronicle.by_kind("migration.complete")
        assert complete["time"] == stamps[-1]

    def test_stall_delays_completion_by_window(self):
        cfg = self.small_config()
        clean = ClusterMigrator(kv_cluster(), cfg)
        clean.start_move(5)
        base = drive_to_completion(clean, dt=5.0)

        injector = FaultInjector([
            FaultSpec(kind="migration_stall", on_migration=1,
                      duration_seconds=120.0),
        ])
        stalled = ClusterMigrator(kv_cluster(), cfg, injector=injector)
        stalled.start_move(5)
        slow = drive_to_completion(stalled, dt=5.0)
        assert slow >= base + 120.0 - 5.0

    def test_corruption_forces_resend(self):
        injector = FaultInjector([
            FaultSpec(kind="transfer_corruption", at_time=0.0),
        ])
        cluster = kv_cluster()
        migrator = ClusterMigrator(cluster, self.small_config(),
                                   injector=injector)
        migrator.start_move(5)
        drive_to_completion(migrator)
        record = injector.records[0]
        assert record.retries == 1
        assert record.recovered_at is not None
        assert total_rows(cluster) == 600

    def test_abort_keeps_cluster_consistent(self):
        cluster = kv_cluster()
        migrator = ClusterMigrator(cluster, self.small_config())
        migration = migrator.start_move(5)
        migrator.advance(migration.total_seconds / 4)
        migrator.abort("node 4 crashed")
        assert not migrator.migrating
        assert migrator.aborted_moves == 1
        assert total_rows(cluster) == 600
        # a fresh move can start after the abort
        migrator.start_move(4)
        drive_to_completion(migrator)
        assert cluster.n_nodes == 4


class TestCrashDrill:
    """End-to-end on the row-level cluster: a crash fires as the first
    reconfiguration starts; at the host's next tick the crash edge aborts
    the move and re-homes the victim's buckets, and a fresh move runs."""

    def run_drill(self):
        telemetry = Telemetry()
        injector = FaultInjector(
            crash_during_migration_scenario(seed=7), telemetry=telemetry
        )
        cluster = kv_cluster()
        migrator = ClusterMigrator(
            cluster, TestMigratorFaults().small_config(),
            telemetry=telemetry, injector=injector,
        )
        migration = migrator.start_move(5)
        migrator.advance(migration.round_seconds / 2)
        handled = injector.handle_crashes(
            migrator.sim_time,
            lambda: [n.node_id for n in cluster.nodes],
            lambda victim: migrator.abort(f"node {victim} crashed"),
            migrator.fail_node,
        )
        migrator.start_move(5)
        drive_to_completion(migrator)
        migrator.allocation.confirm(migrator.sim_time)
        return cluster, migrator, injector, telemetry.chronicle, handled

    def test_crash_aborts_migration_and_recovers(self):
        cluster, migrator, injector, chronicle, handled = self.run_drill()
        ((victim, removed_id),) = handled
        (aborted,) = chronicle.by_kind("migration.aborted")
        assert aborted["reason"] == f"node {victim} crashed"
        (removed,) = chronicle.by_kind("node.remove")
        assert removed["id"] == removed_id
        assert (removed["node"], removed["machines"]) == (victim, 4)
        assert migrator.aborted_moves == 1
        assert cluster.n_nodes == 5
        assert victim not in [n.node_id for n in cluster.nodes]
        record = injector.records[0]
        assert record.detected_at is not None
        assert record.recovered_at is not None
        assert record.recovered_at >= record.detected_at
        assert total_rows(cluster) == 600
        # all buckets live on active nodes; nothing stranded on the corpse
        active_partitions = {
            p for n in cluster.nodes for p in n.partition_ids
        }
        owners = {cluster.plan.owner(b) for b in range(cluster.n_buckets)}
        assert owners <= active_partitions

    def test_drill_is_deterministic(self):
        first = self.run_drill()[2]
        second = self.run_drill()[2]
        assert first.chronicle == second.chronicle


class TestSimulatorChaos:
    CFG = default_config()

    def run_once(self, scenario):
        injector = FaultInjector(scenario)
        sim = ElasticDbSimulator(
            self.CFG, max_machines=6, initial_machines=3, seed=3,
            injector=injector,
        )
        offered = np.full(900, self.CFG.q * 3 * 0.5)
        from repro.elasticity import StaticStrategy

        result = sim.run(offered, StaticStrategy(3))
        return result, injector

    def test_crash_recovery_is_deterministic(self):
        scenario = FaultScenario(
            faults=(FaultSpec(kind="node_crash", at_time=300.0),),
            seed=5,
            name="sim-crash",
        )
        first, inj_a = self.run_once(scenario)
        second, inj_b = self.run_once(scenario)
        assert inj_a.chronicle == inj_b.chronicle
        assert np.array_equal(first.machines, second.machines)
        record = inj_a.records[0]
        assert record.detected_at is not None
        assert record.recovered_at is not None
        # the dead machine stays gone
        assert first.machines[-1] == 2

    def test_mixed_drill_fires_and_recovers_every_fault(self):
        """Drift + straggler + crash in one tick-level run: every
        scheduled fault fires, all recover, and MTTR is defined."""
        from repro.elasticity import ReactiveStrategy

        scenario = mixed_chaos_scenario(crash_time=2000.0)
        injector = FaultInjector(scenario)
        sim = ElasticDbSimulator(
            self.CFG, max_machines=8, initial_machines=3, seed=3,
            injector=injector,
        )
        # up, down and up again: enough moves for the wedged transfer
        # the scenario hangs on migration #2
        ramp = np.concatenate([
            np.linspace(0.4, 1.9, 1500),
            np.linspace(1.9, 0.5, 1500),
            np.linspace(0.5, 1.6, 1200),
        ]) * self.CFG.q * 3
        sim.run(ramp, ReactiveStrategy(self.CFG, max_machines=8))
        stats = recovery_stats(injector.records)
        assert stats.injected == len(scenario)
        assert stats.all_recovered
        assert stats.mean_time_to_recover is not None

    def test_config_enabled_drift_reaches_the_forecasts(self, tmp_path):
        """A drift-only scenario enabled through ``config.faults`` scales
        p-store's forecasts: the simulator hands the injector it built
        from the config to the strategy, so the run moves differently
        from the fault-free one."""
        from dataclasses import replace

        from repro.elasticity.predictive import PStoreStrategy
        from repro.prediction import LastValuePredictor

        path = tmp_path / "drift.json"
        path.write_text(json.dumps({
            "name": "drift-only", "seed": 3,
            "faults": [{"kind": "forecast_drift", "at_time": 600,
                        "duration_seconds": 1800, "magnitude": 2.0}],
        }))
        base = self.CFG.with_interval(300.0)
        load = base.q * 1.5       # 2 machines hold it, inflated or not

        def run(config):
            sim = ElasticDbSimulator(
                config, max_machines=6, initial_machines=2, seed=3
            )
            strategy = PStoreStrategy(
                config, LastValuePredictor().fit([load] * 4)
            )
            result = sim.run(
                np.full(3600, load), strategy, history_seed_tps=[load] * 4
            )
            return sim, result

        _, clean = run(base)
        sim, drifted = run(replace(
            base, faults=FaultConfig(enabled=True, scenario=str(path))
        ))
        assert clean.moves_started == 0
        assert drifted.moves_started > 0
        assert drifted.machines.max() > clean.machines.max()
        assert [(r["event"], r["time"]) for r in sim.injector.chronicle] == [
            ("fault.injected", 600), ("fault.recovered", 2400),
        ]

    def test_disabled_faults_identical_to_no_injector(self):
        sim = ElasticDbSimulator(self.CFG, max_machines=6,
                                 initial_machines=3, seed=3)
        assert sim.injector is None
        offered = np.full(300, self.CFG.q * 3 * 0.5)
        from repro.elasticity import StaticStrategy

        clean = sim.run(offered, StaticStrategy(3))
        again = ElasticDbSimulator(self.CFG, max_machines=6,
                                   initial_machines=3, seed=3).run(
            offered, StaticStrategy(3)
        )
        assert np.array_equal(clean.latency.series(99.0),
                              again.latency.series(99.0))
