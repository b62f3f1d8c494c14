"""Tests for skew-aware hot-bucket rebalancing (the future-work combo)."""

import numpy as np
import pytest

from repro.errors import MigrationError
from repro.hstore import Cluster, Column, Schema, Table
from repro.squall import (
    apply_rebalance,
    hot_bucket_report,
    make_skew_rebalance_plan,
)


def kv_cluster(nodes=2, ppn=2, buckets=64):
    schema = Schema([Table("kv", [Column("k", "str")], primary_key="k")])
    return Cluster(schema, nodes, ppn, buckets)


def hammer_bucket(cluster, bucket, n):
    cluster.record_bucket_access(bucket, n)


class TestHotBucketReport:
    def test_empty_cluster(self):
        report = hot_bucket_report(kv_cluster())
        assert report.total_accesses == 0
        assert report.hottest_share == 0.0
        assert report.hot_buckets == ()

    def test_identifies_hot_bucket_and_partition(self):
        cluster = kv_cluster()
        hot_bucket = 7
        hammer_bucket(cluster, hot_bucket, 900)
        for b in range(20):
            if b != hot_bucket:
                hammer_bucket(cluster, b, 10)
        report = hot_bucket_report(cluster, top_k=3)
        assert report.hot_buckets[0][0] == hot_bucket
        assert report.hottest_partition == cluster.plan.owner(hot_bucket)
        assert report.hottest_share > 0.5

    def test_uniform_access_balanced(self):
        cluster = kv_cluster()
        for b in range(64):
            hammer_bucket(cluster, b, 10)
        report = hot_bucket_report(cluster)
        assert report.hottest_share <= 0.5

    def test_bad_top_k(self):
        with pytest.raises(MigrationError):
            hot_bucket_report(kv_cluster(), top_k=0)


class TestPartitionAccessCounts:
    """``Cluster.partition_access_counts``: the bucket counters summed by
    each bucket's current owner, the one load figure skew reports read."""

    @staticmethod
    def _by_owner_loop(cluster):
        counts = cluster.bucket_access_counts()
        load = {pid: 0 for pid in cluster.partition_ids}
        for bucket in range(cluster.n_buckets):
            load[cluster.plan.owner(bucket)] += int(counts[bucket])
        return load

    def test_equals_bucket_counters_summed_by_owner(self):
        cluster = kv_cluster()
        rng = np.random.default_rng(11)
        for b in range(64):
            hammer_bucket(cluster, b, int(rng.integers(0, 500)))
        hammer_bucket(cluster, 7, 900)
        loads = cluster.partition_access_counts()
        assert loads == self._by_owner_loop(cluster)
        assert sum(loads.values()) == int(cluster.bucket_access_counts().sum())
        assert hot_bucket_report(cluster).partition_load == loads

    def test_counts_follow_a_moved_bucket(self):
        cluster = kv_cluster()
        hammer_bucket(cluster, 3, 40)
        source = cluster.plan.owner(3)
        dest = next(p for p in cluster.partition_ids if p != source)
        cluster.move_bucket(3, dest)
        loads = cluster.partition_access_counts()
        assert loads[dest] == 40 and loads[source] == 0
        assert loads == self._by_owner_loop(cluster)

    def test_new_partitions_start_at_zero(self):
        cluster = kv_cluster()
        hammer_bucket(cluster, 0, 5)
        cluster.add_nodes(1)
        loads = cluster.partition_access_counts()
        assert sorted(loads) == cluster.partition_ids
        assert sum(loads.values()) == 5
        assert loads == self._by_owner_loop(cluster)

    def test_no_accesses(self):
        cluster = kv_cluster()
        assert set(cluster.partition_access_counts().values()) == {0}
        assert cluster.access_skew() == (0.0, 0.0)

    def test_uniform_access_is_balanced(self):
        cluster = kv_cluster()
        for i in range(4000):
            hammer_bucket(cluster, cluster.bucket_of(f"key-{i}"), 1)
        assert sum(cluster.partition_access_counts().values()) == 4000
        worst_excess, _ = cluster.access_skew()
        assert worst_excess < 0.2
        assert hot_bucket_report(cluster).hottest_share < 0.4

    def test_hot_partition_detected(self):
        cluster = kv_cluster()
        hot = cluster.partition_ids[0]
        for b in range(64):
            hammer_bucket(cluster, b, 100)
        for b in cluster.plan.buckets_of(hot):
            hammer_bucket(cluster, b, 400)
        worst_excess, _ = cluster.access_skew()
        assert worst_excess > 1.0
        assert hot_bucket_report(cluster).hottest_partition == hot

    def test_reset(self):
        cluster = kv_cluster()
        hammer_bucket(cluster, 0, 10)
        cluster.reset_bucket_accesses()
        assert set(cluster.partition_access_counts().values()) == {0}


class TestRebalancePlan:
    def test_moves_warm_buckets_off_hot_partition(self):
        cluster = kv_cluster()
        hot_pid = cluster.partition_ids[0]
        warm = cluster.plan.buckets_of(hot_pid)[:4]
        for b in warm:
            hammer_bucket(cluster, b, 200)
        for b in range(64):
            if b not in warm:
                hammer_bucket(cluster, b, 5)
        plan = make_skew_rebalance_plan(cluster)
        assert plan.n_moves >= 1
        for move in plan.moves:
            assert move.source_partition == hot_pid
            assert move.destination_partition != hot_pid
            assert move.bucket in warm

    def test_single_dominant_bucket_not_shuffled_pointlessly(self):
        """Relocating one mega-hot bucket merely moves the hotspot, so
        the planner moves *other* buckets off its partition instead."""
        cluster = kv_cluster()
        hot_bucket = 5
        source = cluster.plan.owner(hot_bucket)
        hammer_bucket(cluster, hot_bucket, 1000)
        for b in range(64):
            if b != hot_bucket:
                hammer_bucket(cluster, b, 5)
        plan = make_skew_rebalance_plan(cluster)
        moved_buckets = {m.bucket for m in plan.moves}
        assert hot_bucket not in moved_buckets
        assert all(m.source_partition == source for m in plan.moves)

    def test_balanced_load_plans_nothing(self):
        cluster = kv_cluster()
        for b in range(64):
            hammer_bucket(cluster, b, 10)
        plan = make_skew_rebalance_plan(cluster)
        assert plan.n_moves == 0

    def test_no_accesses_plans_nothing(self):
        plan = make_skew_rebalance_plan(kv_cluster())
        assert plan.n_moves == 0

    def test_respects_max_moves(self):
        cluster = kv_cluster()
        owner0_buckets = cluster.plan.buckets_of(cluster.partition_ids[0])
        for b in owner0_buckets[:10]:
            hammer_bucket(cluster, b, 500)
        plan = make_skew_rebalance_plan(cluster, max_moves=2)
        assert plan.n_moves <= 2

    def test_plan_improves_balance(self):
        cluster = kv_cluster()
        rng = np.random.default_rng(5)
        pid0 = cluster.partition_ids[0]
        for b in cluster.plan.buckets_of(pid0):
            hammer_bucket(cluster, b, int(rng.integers(100, 400)))
        for b in range(64):
            hammer_bucket(cluster, b, int(rng.integers(1, 10)))

        before = hot_bucket_report(cluster).hottest_share
        plan = make_skew_rebalance_plan(cluster, max_moves=16)
        counts = cluster.bucket_access_counts().astype(float)
        load = {pid: 0.0 for pid in cluster.partition_ids}
        for b in range(cluster.n_buckets):
            load[plan.target.owner(b)] += counts[b]
        after = max(load.values()) / counts.sum()
        assert after < before

    def test_validation(self):
        with pytest.raises(MigrationError):
            make_skew_rebalance_plan(kv_cluster(), max_moves=0)
        with pytest.raises(MigrationError):
            make_skew_rebalance_plan(kv_cluster(), target_share_factor=0.9)


class TestApplyRebalance:
    def test_rows_follow_hot_bucket(self):
        cluster = kv_cluster()
        # Insert keys until some land in a chosen bucket.
        hot_bucket = None
        hot_keys = []
        for i in range(600):
            key = f"key-{i}"
            cluster.insert("kv", {"k": key})
            bucket = cluster.bucket_of(key)
            if hot_bucket is None:
                hot_bucket = bucket
            if bucket == hot_bucket:
                hot_keys.append(key)
        hammer_bucket(cluster, hot_bucket, 1000)
        for b in range(64):
            if b != hot_bucket:
                hammer_bucket(cluster, b, 2)

        plan = make_skew_rebalance_plan(cluster)
        moved_kb = apply_rebalance(cluster, plan)
        assert moved_kb > 0
        for key in hot_keys:
            assert cluster.get("kv", key) is not None  # still routable
