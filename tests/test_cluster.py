"""Tests for the cluster: routing, partition plans, bucket moves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CatalogError, RoutingError
from repro.hstore import Cluster, Column, PartitionPlan, Schema, Table


def kv_schema():
    return Schema(
        [
            Table(
                "kv",
                [Column("k", "str"), Column("v", "int", nullable=True)],
                primary_key="k",
            )
        ]
    )


def make_cluster(nodes=2, ppn=2, buckets=64):
    return Cluster(kv_schema(), n_nodes=nodes, partitions_per_node=ppn, n_buckets=buckets)


class TestPartitionPlan:
    def test_round_robin_balanced(self):
        plan = PartitionPlan.round_robin(64, [0, 1, 2, 3])
        counts = plan.counts()
        assert all(c == 16 for c in counts.values())

    def test_round_robin_uneven(self):
        plan = PartitionPlan.round_robin(10, [0, 1, 2])
        counts = plan.counts()
        assert sum(counts.values()) == 10
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_owner_bounds(self):
        plan = PartitionPlan.round_robin(8, [0, 1])
        with pytest.raises(RoutingError):
            plan.owner(8)

    def test_with_move(self):
        plan = PartitionPlan.round_robin(8, [0, 1])
        moved = plan.with_move(0, 1)
        assert moved.owner(0) == 1
        assert plan.owner(0) == 0  # original untouched

    def test_diff(self):
        plan = PartitionPlan.round_robin(8, [0, 1])
        target = plan.with_move(0, 1).with_move(2, 1)
        diff = plan.diff(target)
        assert (0, 0, 1) in diff and (2, 0, 1) in diff
        assert len(diff) == 2

    def test_diff_size_mismatch(self):
        with pytest.raises(CatalogError):
            PartitionPlan.round_robin(8, [0]).diff(
                PartitionPlan.round_robin(16, [0])
            )

    def test_buckets_of(self):
        plan = PartitionPlan.round_robin(8, [0, 1])
        assert plan.buckets_of(0) == [0, 2, 4, 6]

    def test_empty_plan_rejected(self):
        with pytest.raises(CatalogError):
            PartitionPlan([])


class TestTopology:
    def test_initial_layout(self):
        cluster = make_cluster(nodes=3, ppn=2)
        assert cluster.n_nodes == 3
        assert len(cluster.partition_ids) == 6

    def test_add_nodes(self):
        cluster = make_cluster()
        new = cluster.add_nodes(2)
        assert cluster.n_nodes == 4
        assert len(new) == 2
        # New partitions exist but own no buckets yet.
        for node in new:
            for pid in node.partition_ids:
                assert cluster.plan.buckets_of(pid) == []

    def test_remove_requires_drained(self):
        cluster = make_cluster()
        with pytest.raises(CatalogError):
            cluster.remove_nodes([1])

    def test_remove_drained_node(self):
        cluster = make_cluster()
        new = cluster.add_nodes(1)
        cluster.remove_nodes([new[0].node_id])
        assert cluster.n_nodes == 2

    def test_remove_unknown_node(self):
        cluster = make_cluster()
        with pytest.raises(CatalogError):
            cluster.remove_nodes([99])

    def test_too_few_buckets_rejected(self):
        with pytest.raises(CatalogError):
            Cluster(kv_schema(), n_nodes=4, partitions_per_node=4, n_buckets=8)


class TestRoutingAndDml:
    def test_routing_is_stable(self):
        cluster = make_cluster()
        p1 = cluster.route("CART-77")
        p2 = cluster.route("CART-77")
        assert p1.partition_id == p2.partition_id

    def test_insert_get_respects_routing(self):
        cluster = make_cluster()
        cluster.insert("kv", {"k": "a", "v": 1})
        owner = cluster.route("a")
        assert owner.get("kv", "a") is not None
        assert cluster.get("kv", "a")["v"] == 1

    def test_insert_requires_partition_key(self):
        cluster = make_cluster()
        with pytest.raises(RoutingError):
            cluster.insert("kv", {"v": 1})

    def test_update_delete(self):
        cluster = make_cluster()
        cluster.insert("kv", {"k": "a", "v": 1})
        cluster.update("kv", "a", {"v": 5})
        assert cluster.get("kv", "a")["v"] == 5
        assert cluster.delete("kv", "a") is True
        assert cluster.get("kv", "a") is None

    def test_upsert(self):
        cluster = make_cluster()
        assert cluster.upsert("kv", {"k": "a", "v": 1}) is True
        assert cluster.upsert("kv", {"k": "a", "v": 2}) is False


class TestBucketMoves:
    def test_move_bucket_relocates_rows(self):
        cluster = make_cluster()
        keys = [f"key-{i}" for i in range(200)]
        for key in keys:
            cluster.insert("kv", {"k": key, "v": 0})
        bucket = cluster.bucket_of("key-0")
        source = cluster.plan.owner(bucket)
        target = next(p for p in cluster.partition_ids if p != source)
        moved_kb = cluster.move_bucket(bucket, target)
        assert moved_kb > 0
        assert cluster.plan.owner(bucket) == target
        # The row is still reachable through routing.
        assert cluster.get("kv", "key-0") is not None

    def test_move_to_same_partition_is_noop(self):
        cluster = make_cluster()
        bucket = 0
        owner = cluster.plan.owner(bucket)
        assert cluster.move_bucket(bucket, owner) == 0.0

    def test_move_to_unknown_partition(self):
        cluster = make_cluster()
        with pytest.raises(CatalogError):
            cluster.move_bucket(0, 999)

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_random_ops_keep_index_consistent(self, seed):
        """Interleaved DML and bucket moves never lose or duplicate rows."""
        rng = np.random.default_rng(seed)
        cluster = make_cluster(nodes=2, ppn=2, buckets=32)
        alive = set()
        for step in range(300):
            roll = rng.random()
            key = f"key-{rng.integers(0, 80)}"
            if roll < 0.5:
                cluster.upsert("kv", {"k": key, "v": int(step)})
                alive.add(key)
            elif roll < 0.7:
                cluster.delete("kv", key)
                alive.discard(key)
            else:
                bucket = int(rng.integers(0, 32))
                target = int(rng.choice(cluster.partition_ids))
                cluster.move_bucket(bucket, target)
        # Every live key is reachable; every dead key is gone.
        for key in alive:
            assert cluster.get("kv", key) is not None
        total_rows = sum(
            cluster.partition(p).row_count() for p in cluster.partition_ids
        )
        assert total_rows == len(alive)


class TestPartitionAccessCounts:
    """``Cluster.partition_access_counts``: the bucket counters summed by
    each bucket's current owner, the one load figure the skew report reads."""

    @staticmethod
    def _by_owner_loop(cluster):
        counts = cluster.bucket_access_counts()
        load = {pid: 0 for pid in cluster.partition_ids}
        for bucket in range(cluster.n_buckets):
            load[cluster.plan.owner(bucket)] += int(counts[bucket])
        return load

    def test_equals_bucket_counters_summed_by_owner(self):
        cluster = make_cluster()
        rng = np.random.default_rng(11)
        for b in range(64):
            cluster.record_bucket_access(b, int(rng.integers(0, 500)))
        cluster.record_bucket_access(7, 900)
        loads = cluster.partition_access_counts()
        assert loads == self._by_owner_loop(cluster)
        assert sum(loads.values()) == int(cluster.bucket_access_counts().sum())

    def test_counts_follow_a_moved_bucket(self):
        cluster = make_cluster()
        cluster.record_bucket_access(3, 40)
        source = cluster.plan.owner(3)
        dest = next(p for p in cluster.partition_ids if p != source)
        cluster.move_bucket(3, dest)
        loads = cluster.partition_access_counts()
        assert loads[dest] == 40 and loads[source] == 0
        assert loads == self._by_owner_loop(cluster)

    def test_new_partitions_start_at_zero(self):
        cluster = make_cluster()
        cluster.record_bucket_access(0, 5)
        cluster.add_nodes(1)
        loads = cluster.partition_access_counts()
        assert sorted(loads) == cluster.partition_ids
        assert sum(loads.values()) == 5
        assert loads == self._by_owner_loop(cluster)

    def test_no_accesses(self):
        cluster = make_cluster()
        assert set(cluster.partition_access_counts().values()) == {0}
        assert cluster.access_skew() == (0.0, 0.0)

    def test_uniform_access_is_balanced(self):
        cluster = make_cluster()
        for i in range(4000):
            cluster.record_bucket_access(cluster.bucket_of(f"key-{i}"), 1)
        loads = cluster.partition_access_counts()
        assert sum(loads.values()) == 4000
        worst_excess, _ = cluster.access_skew()
        assert worst_excess < 0.2
        assert max(loads.values()) < 0.4 * 4000

    def test_hot_partition_detected(self):
        cluster = make_cluster()
        hot = cluster.partition_ids[0]
        for b in range(64):
            cluster.record_bucket_access(b, 100)
        for b in cluster.plan.buckets_of(hot):
            cluster.record_bucket_access(b, 400)
        worst_excess, _ = cluster.access_skew()
        assert worst_excess > 1.0
        loads = cluster.partition_access_counts()
        assert max(loads, key=loads.get) == hot


class TestFractions:
    def test_data_fractions_sum_to_one(self):
        cluster = make_cluster()
        for i in range(300):
            cluster.insert("kv", {"k": f"key-{i}", "v": 0})
        fractions = cluster.data_fractions_by_node()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_bucket_fractions_uniform_initially(self):
        cluster = make_cluster(nodes=4, ppn=2, buckets=64)
        fractions = cluster.bucket_fractions_by_node()
        for value in fractions.values():
            assert value == pytest.approx(0.25)

    def test_empty_cluster_fractions(self):
        cluster = make_cluster()
        fractions = cluster.data_fractions_by_node()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_access_skew_low_for_uniform_keys(self):
        """Sec 8.1: random keys spread nearly uniformly over partitions."""
        cluster = make_cluster(nodes=2, ppn=3, buckets=120)
        for i in range(6000):
            cluster.record_bucket_access(cluster.bucket_of(f"CART-{i:09d}"))
        worst_excess, std = cluster.access_skew()
        assert worst_excess < 0.15
        assert std < 0.06
