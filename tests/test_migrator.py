"""Tests for the simulated-time migrator (ActiveMigration, ClusterMigrator)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    DEFAULT_CHUNK_KB,
    DEFAULT_MIGRATION_RATE_KBPS,
    PStoreConfig,
    default_config,
)
from repro.core.model import effective_capacity, move_time
from repro.errors import MigrationError
from repro.hstore import Cluster, Column, Schema, Table
from repro.squall import (
    ActiveMigration,
    CHUNK_SPACING_SECONDS,
    ClusterMigrator,
    build_migration_schedule,
    chunk_spacing_seconds,
)
from repro.telemetry import Telemetry


def make_migration(before, after, rate=244.0, ppn=1, db_kb=1_000_000.0, **kwargs):
    schedule = build_migration_schedule(before, after)
    return ActiveMigration(
        schedule=schedule,
        database_kb=db_kb,
        rate_kbps=rate,
        partitions_per_node=ppn,
        **kwargs,
    )


def kv_cluster(nodes=3, ppn=2, buckets=120, rows=2000):
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


class TestActiveMigrationTiming:
    def test_total_time_matches_eq3(self):
        """Wall-clock duration must equal T(B,A) with D = db_kb / R."""
        db_kb, rate = 1_000_000.0, 244.0
        migration = make_migration(3, 14, rate=rate, ppn=6, db_kb=db_kb)
        d_seconds = db_kb / rate
        expected = move_time(3, 14, partitions_per_node=6, d=d_seconds)
        assert migration.total_seconds == pytest.approx(expected)

    def test_boosted_rate_is_8x_faster(self):
        regular = make_migration(2, 4)
        boosted = make_migration(2, 4, rate=8 * 244.0)
        assert boosted.total_seconds == pytest.approx(regular.total_seconds / 8)

    def test_done_after_total_time(self):
        migration = make_migration(2, 4)
        migration.advance(migration.total_seconds + 1.0)
        assert migration.done
        assert migration.fraction_moved == 1.0

    def test_advance_returns_completed_rounds(self):
        migration = make_migration(3, 9)
        rounds = migration.advance(migration.total_seconds / 2 + 1e-6)
        assert len(rounds) == 3  # half of 6 rounds

    def test_negative_advance_rejected(self):
        with pytest.raises(MigrationError):
            make_migration(2, 3).advance(-1.0)


class TestActiveMigrationState:
    def test_fractions_track_eq7(self):
        """The busiest machine's data share must follow the Eq. 7
        trajectory at every point of the move."""
        q = 285.0
        migration = make_migration(3, 14)
        steps = 50
        dt = migration.total_seconds / steps
        for _ in range(steps):
            migration.advance(dt)
            f = migration.fraction_moved
            largest = migration.data_fractions().max()
            expected = q / effective_capacity(3, 14, f, q)
            assert largest == pytest.approx(expected, rel=1e-6)

    def test_fractions_sum_to_one_throughout(self):
        migration = make_migration(4, 7)
        dt = migration.total_seconds / 17
        for _ in range(17):
            migration.advance(dt)
            assert migration.data_fractions().sum() == pytest.approx(1.0)

    def test_scale_in_fractions(self):
        migration = make_migration(5, 2)
        migration.advance(migration.total_seconds + 1)
        fractions = migration.data_fractions()
        assert fractions[:2] == pytest.approx(0.5)
        assert fractions[2:] == pytest.approx(0.0)

    def test_machines_allocated_jit(self):
        migration = make_migration(3, 14)
        assert migration.machines_allocated() == 6  # first block present
        migration.advance(migration.total_seconds * 0.5)
        assert migration.machines_allocated() in (9, 12)
        migration.advance(migration.total_seconds)
        assert migration.machines_allocated() == 14

    def test_migrating_machines_subset_of_allocated(self):
        migration = make_migration(3, 14)
        dt = migration.total_seconds / 23
        while not migration.done:
            busy = migration.migrating_machines()
            assert all(m < migration.machines_allocated() for m in busy)
            migration.advance(dt)

    def test_node_map_translation(self):
        migration = make_migration(2, 3, node_map={0: 10, 1: 11, 2: 12})
        assert migration.physical_nodes({0, 2}) == {10, 12}

    def test_parameter_validation(self):
        schedule = build_migration_schedule(2, 3)
        with pytest.raises(MigrationError):
            ActiveMigration(schedule, database_kb=0.0, rate_kbps=244.0)
        with pytest.raises(MigrationError):
            ActiveMigration(schedule, database_kb=1.0, rate_kbps=0.0)
        with pytest.raises(MigrationError):
            ActiveMigration(schedule, 1.0, 244.0, partitions_per_node=0)
        with pytest.raises(MigrationError):
            ActiveMigration(schedule, 1.0, 244.0, chunk_kb=0.0)


class TestChunkSpacing:
    def test_constant_derives_from_defaults(self):
        """CHUNK_SPACING_SECONDS must be the defaults fed through the
        helper, not an independently hardcoded quotient."""
        assert CHUNK_SPACING_SECONDS == pytest.approx(
            chunk_spacing_seconds(DEFAULT_CHUNK_KB, DEFAULT_MIGRATION_RATE_KBPS)
        )
        assert CHUNK_SPACING_SECONDS == pytest.approx(
            DEFAULT_CHUNK_KB / DEFAULT_MIGRATION_RATE_KBPS
        )

    def test_paper_defaults_give_4_1_seconds(self):
        """Sec 8.1: 1 MB chunks at R = 244 kB/s -> one chunk every ~4.1 s."""
        assert CHUNK_SPACING_SECONDS == pytest.approx(4.098, abs=0.001)

    def test_helper_validates_inputs(self):
        with pytest.raises(MigrationError):
            chunk_spacing_seconds(0.0, 244.0)
        with pytest.raises(MigrationError):
            chunk_spacing_seconds(1000.0, 0.0)

    def test_active_migration_exposes_spacing(self):
        migration = make_migration(2, 4, rate=500.0, chunk_kb=250.0)
        assert migration.chunk_spacing_seconds == pytest.approx(0.5)

    def test_migrator_spacing_follows_config(self):
        """The migrator's chunk cadence tracks config.chunk_kb and the
        configured rate rather than the module constant."""
        cfg = PStoreConfig(
            database_kb=1_000_000.0, d_seconds=2000.0, chunk_kb=2500.0
        )
        migrator = ClusterMigrator(kv_cluster(), cfg)
        migrator.start_move(5)
        migration = migrator.active
        assert migration is not None
        # R = database_kb / D = 500 kB/s; 2500 kB chunks -> 5 s apart
        assert migration.chunk_spacing_seconds == pytest.approx(5.0)


class TestClusterMigrator:
    def test_scale_out_rebalances_data(self):
        cluster = kv_cluster()
        migrator = ClusterMigrator(cluster, default_config())
        migrator.start_move(5)
        while migrator.migrating:
            migrator.advance(30.0)
        assert cluster.n_nodes == 5
        fractions = cluster.data_fractions_by_node()
        for share in fractions.values():
            assert share == pytest.approx(0.2, abs=0.03)

    def test_scale_in_preserves_all_rows(self):
        cluster = kv_cluster(nodes=4)
        migrator = ClusterMigrator(cluster, default_config())
        migrator.start_move(2)
        while migrator.migrating:
            migrator.advance(30.0)
        assert cluster.n_nodes == 2
        total = sum(cluster.partition(p).row_count() for p in cluster.partition_ids)
        assert total == 2000
        assert cluster.get("kv", "key-123")["v"] == 123

    def test_rows_remain_routable_mid_migration(self):
        cluster = kv_cluster()
        migrator = ClusterMigrator(cluster, default_config())
        migrator.start_move(5)
        migration = migrator.active
        assert migration is not None
        migrator.advance(migration.total_seconds / 2)
        for i in range(0, 2000, 97):
            assert cluster.get("kv", f"key-{i}") is not None

    def test_concurrent_moves_rejected(self):
        cluster = kv_cluster()
        migrator = ClusterMigrator(cluster, default_config())
        migrator.start_move(5)
        with pytest.raises(MigrationError):
            migrator.start_move(6)

    def test_noop_move_rejected(self):
        migrator = ClusterMigrator(kv_cluster(), default_config())
        with pytest.raises(MigrationError):
            migrator.start_move(3)

    def test_advance_without_move_rejected(self):
        migrator = ClusterMigrator(kv_cluster(), default_config())
        with pytest.raises(MigrationError):
            migrator.advance(1.0)

    @pytest.mark.parametrize("before, after", [(3, 5), (4, 2), (2, 7)])
    def test_one_big_dt_is_many_small_ones(self, before, after):
        """``advance`` slices ``dt`` at round ends, so how a host slices
        its time moves no bucket and stamps each round where it lands."""

        def run(pieces):
            telemetry = Telemetry()
            cluster = kv_cluster(nodes=before, rows=500)
            migrator = ClusterMigrator(
                cluster, default_config(), telemetry=telemetry
            )
            dt = migrator.start_move(after).total_seconds * 2 / pieces
            for _ in range(pieces):
                if migrator.migrating:
                    migrator.advance(dt)
            assert not migrator.migrating
            rounds = telemetry.chronicle.by_kind("migration.round")
            return cluster, [r["time"] for r in rounds], migrator.sim_time

        big, big_stamps, big_end = run(1)
        small, small_stamps, small_end = run(1994)   # not a round multiple
        assert big.plan == small.plan
        assert big.n_nodes == small.n_nodes == after
        assert len(big_stamps) == max(min(before, after), abs(after - before))
        assert np.allclose(big_stamps, small_stamps, rtol=0, atol=1e-9)
        assert big_stamps == sorted(big_stamps)
        assert big_end == big_stamps[-1]
        assert abs(small_end - small_stamps[-1]) < 1e-9

    @given(
        before=st.integers(min_value=1, max_value=5),
        after=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=12, deadline=None)
    def test_any_resize_preserves_rows(self, before, after):
        if before == after:
            return
        cluster = kv_cluster(nodes=before, ppn=2, buckets=120, rows=500)
        migrator = ClusterMigrator(cluster, default_config())
        migrator.start_move(after)
        while migrator.migrating:
            migrator.advance(60.0)
        assert cluster.n_nodes == after
        total = sum(cluster.partition(p).row_count() for p in cluster.partition_ids)
        assert total == 500


class TestRoundCommitExactness:
    """Committed migration state must be free of partial-step residue.

    ActiveMigration.advance used to accumulate each partial step's
    fractional progress into ``_fractions`` and "top up" at the round
    boundary, so the committed vector depended on *how* time was sliced.
    Commits now rebuild from the round-entry snapshot, making the
    committed fractions a pure function of which rounds completed.
    """

    @given(
        before=st.integers(min_value=1, max_value=5),
        after=st.integers(min_value=1, max_value=6),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_final_fractions_independent_of_step_sizes(
        self, before, after, data
    ):
        if before == after:
            return
        mig = make_migration(before, after, db_kb=50_000.0)
        total = mig.total_seconds
        while not mig.done:
            dt = data.draw(
                st.floats(min_value=total / 97.0, max_value=total / 3.0)
            )
            mig.advance(dt)
        ref = make_migration(before, after, db_kb=50_000.0)
        while not ref.done:
            ref.advance(ref.round_seconds)  # exact whole-round commits
        assert np.array_equal(mig.data_fractions(), ref.data_fractions())

    @given(
        before=st.integers(min_value=1, max_value=5),
        after=st.integers(min_value=1, max_value=6),
        data=st.data(),
    )
    @settings(max_examples=15, deadline=None)
    def test_committed_base_is_pure_function_of_round_count(
        self, before, after, data
    ):
        if before == after:
            return
        mig = make_migration(before, after, db_kb=50_000.0)
        total = mig.total_seconds
        while not mig.done:
            dt = data.draw(
                st.floats(min_value=total / 19.0, max_value=total / 3.0)
            )
            mig.advance(dt)
            ref = make_migration(before, after, db_kb=50_000.0)
            for _ in range(len(mig._completed_rounds)):
                ref.advance(ref.round_seconds)
            assert np.array_equal(mig._round_base, ref._fractions)

    @given(
        before=st.integers(min_value=1, max_value=5),
        after=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=12, deadline=None)
    def test_fractions_sum_to_one_at_every_commit(self, before, after):
        from repro.check import invariants

        if before == after:
            return
        mig = make_migration(before, after, db_kb=50_000.0)
        with invariants.check_scope("cheap"):
            while not mig.done:
                mig.advance(mig.total_seconds / 7.3)  # never a round multiple
        assert float(mig.data_fractions().sum()) == pytest.approx(1.0, abs=1e-12)

    def test_abort_mid_move_conserves_rows_under_checks(self):
        from repro.check import invariants

        cluster = kv_cluster(nodes=4, ppn=2, buckets=120, rows=1000)
        migrator = ClusterMigrator(cluster, default_config())
        with invariants.check_scope("cheap"):
            migrator.start_move(2)  # scale-in
            migrator.advance(migrator.active.round_seconds + 1.0)
            migrator.abort("test abort")
        total = sum(
            cluster.partition(p).row_count() for p in cluster.partition_ids
        )
        assert total == 1000

    def test_scale_in_passes_expensive_checks(self):
        from repro.check import invariants

        cluster = kv_cluster(nodes=4, ppn=2, buckets=120, rows=800)
        migrator = ClusterMigrator(cluster, default_config())
        with invariants.check_scope("expensive"):
            migrator.start_move(2)
            while migrator.migrating:
                migrator.advance(120.0)
        assert cluster.n_nodes == 2
        total = sum(
            cluster.partition(p).row_count() for p in cluster.partition_ids
        )
        assert total == 800
