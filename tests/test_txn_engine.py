"""Tests for transactions, routing enforcement, and the execution engines."""

import numpy as np
import pytest

from repro.errors import RoutingError, SimulationError
from repro.hstore import (
    Cluster,
    Column,
    MigrationInterference,
    QueueingEngine,
    Schema,
    StoredProcedure,
    Table,
    Transaction,
    TransactionExecutor,
    TxnContext,
)
from repro.hstore.engine import DEFAULT_MU_PARTITION


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


class PutProc(StoredProcedure):
    name = "Put"

    def routing_key(self, params):
        return params["k"]

    def run(self, ctx, params):
        ctx.upsert("kv", {"k": params["k"], "v": params["v"]})
        return params["v"]


class CrossKeyProc(StoredProcedure):
    name = "EvilCrossKey"

    def routing_key(self, params):
        return params["k1"]

    def run(self, ctx, params):
        ctx.upsert("kv", {"k": params["k1"], "v": 1})
        ctx.upsert("kv", {"k": params["k2"], "v": 2})  # likely cross-bucket
        return None


class TestTxnContext:
    def test_single_key_ops_allowed(self):
        cluster = Cluster(kv_schema(), 2, 2, 64)
        ctx = TxnContext(cluster, "a")
        ctx.upsert("kv", {"k": "a", "v": 1})
        assert ctx.get("kv", "a")["v"] == 1
        assert ctx.ops == 2

    def test_cross_bucket_access_rejected(self):
        cluster = Cluster(kv_schema(), 2, 2, 64)
        # Find two keys in different buckets.
        k1 = "key-a"
        k2 = next(
            f"key-{i}"
            for i in range(1000)
            if cluster.bucket_of(f"key-{i}") != cluster.bucket_of(k1)
        )
        ctx = TxnContext(cluster, k1)
        with pytest.raises(RoutingError):
            ctx.upsert("kv", {"k": k2, "v": 1})


class TestTransactionExecutor:
    def test_executes_and_records(self):
        cluster = Cluster(kv_schema(), 1, 2, 32)
        executor = TransactionExecutor(cluster, seed=3)
        result = executor.execute(
            Transaction(PutProc(), {"k": "a", "v": 5}, submit_time=1.0)
        )
        assert result.committed
        assert result.latency_ms > 0
        assert cluster.get("kv", "a")["v"] == 5
        assert executor.committed == 1

    def test_a_transaction_counts_once_against_its_bucket(self):
        cluster = Cluster(kv_schema(), 2, 2, 64)
        executor = TransactionExecutor(cluster, seed=3)
        result = executor.execute(
            Transaction(PutProc(), {"k": "a", "v": 5}, submit_time=1.0)
        )
        counts = cluster.bucket_access_counts()
        assert counts.sum() == 1 and counts[cluster.bucket_of("a")] == 1
        assert cluster.partition_access_counts()[result.partition_id] == 1

    def test_cross_key_transaction_raises(self):
        cluster = Cluster(kv_schema(), 2, 2, 64)
        executor = TransactionExecutor(cluster, seed=3)
        k2 = next(
            f"key-{i}"
            for i in range(1000)
            if cluster.bucket_of(f"key-{i}") != cluster.bucket_of("key-a")
        )
        with pytest.raises(RoutingError):
            executor.execute(
                Transaction(CrossKeyProc(), {"k1": "key-a", "k2": k2})
            )

    def test_queueing_builds_under_burst(self):
        """Submitting many txns at the same instant queues them, so
        later ones see higher latency."""
        cluster = Cluster(kv_schema(), 1, 1, 32)
        executor = TransactionExecutor(cluster, seed=3)
        latencies = [
            executor.execute(
                Transaction(PutProc(), {"k": "a", "v": i}, submit_time=0.0)
            ).latency_ms
            for i in range(50)
        ]
        assert np.mean(latencies[40:]) > 3 * np.mean(latencies[:5])


class TestQueueingEngine:
    def make_engine(self, n=6, **kwargs):
        return QueueingEngine(n_partitions=n, seed=7, **kwargs)

    def uniform(self, n=6):
        return np.full(n, 1.0 / n)

    def test_low_load_low_latency(self):
        engine = self.make_engine()
        stats = engine.step(1.0, 50.0, self.uniform())
        assert stats.p99_ms < 200.0
        assert stats.backlog == 0.0

    def test_latency_rises_with_utilization(self):
        engine_lo = self.make_engine()
        engine_hi = self.make_engine()
        lo = np.mean([engine_lo.step(1.0, 100.0, self.uniform()).p99_ms for _ in range(50)])
        hi = np.mean([engine_hi.step(1.0, 400.0, self.uniform()).p99_ms for _ in range(50)])
        assert hi > 2 * lo

    def test_saturation_builds_backlog(self):
        """Offered load beyond 438 tps on one node must queue (Fig. 7)."""
        engine = self.make_engine()
        for _ in range(30):
            stats = engine.step(1.0, 600.0, self.uniform())
        assert stats.backlog > 100.0
        assert stats.completed_tps < 500.0
        assert stats.p99_ms > 500.0

    def test_throughput_caps_at_saturation(self):
        engine = self.make_engine()
        for _ in range(20):
            stats = engine.step(1.0, 2000.0, self.uniform())
        assert stats.completed_tps == pytest.approx(
            6 * DEFAULT_MU_PARTITION, rel=0.05
        )

    def test_interference_raises_latency(self):
        quiet = self.make_engine(skew_sigma=0.0, hot_episode_rate=0.0)
        noisy = self.make_engine(skew_sigma=0.0, hot_episode_rate=0.0)
        interference = MigrationInterference.for_rate(
            6, migrating=[0, 1, 2], rate_kbps=2000.0, chunk_kb=8000.0
        )
        base = np.mean([quiet.step(1.0, 300.0, self.uniform()).p99_ms for _ in range(50)])
        hurt = np.mean(
            [noisy.step(1.0, 300.0, self.uniform(), interference).p99_ms for _ in range(50)]
        )
        assert hurt > 1.5 * base

    def test_deterministic_with_seed(self):
        a = QueueingEngine(6, seed=11)
        b = QueueingEngine(6, seed=11)
        sa = [a.step(1.0, 200.0, self.uniform()).p99_ms for _ in range(10)]
        sb = [b.step(1.0, 200.0, self.uniform()).p99_ms for _ in range(10)]
        assert sa == sb

    def test_share_validation(self):
        engine = self.make_engine()
        with pytest.raises(SimulationError):
            engine.step(1.0, 100.0, np.zeros(6))
        with pytest.raises(SimulationError):
            engine.step(1.0, 100.0, np.full(3, 1 / 3))
        with pytest.raises(SimulationError):
            engine.step(0.0, 100.0, self.uniform())
        with pytest.raises(SimulationError):
            engine.step(1.0, -5.0, self.uniform())

    def test_skewed_shares_shift_load(self):
        """A partition with twice the share saturates first."""
        engine = self.make_engine(n=2, skew_sigma=0.0, hot_episode_rate=0.0)
        shares = np.array([2.0, 1.0])
        stats = engine.step(1.0, 150.0, shares)
        # 100 tps on partition 0 (mu=73) overloads it.
        assert stats.max_utilization > 1.0


class TestQueueingStatistics:
    """Statistical agreement with the M/M/1 model the engine implements."""

    def test_median_sojourn_matches_mm1(self):
        """At rho = 0.5 with no skew, the long-run median latency must
        match the M/M/1 sojourn median ln(2) / (mu - lambda)."""
        engine = QueueingEngine(
            n_partitions=4, seed=42, skew_sigma=0.0, hot_episode_rate=0.0,
            samples_per_tick=512,
        )
        mu = DEFAULT_MU_PARTITION
        offered = 4 * mu * 0.5
        shares = np.full(4, 0.25)
        medians = [
            engine.step(1.0, offered, shares).p50_ms for _ in range(300)
        ]
        expected_ms = np.log(2.0) / (mu - mu * 0.5) * 1000.0
        assert np.mean(medians) == pytest.approx(expected_ms, rel=0.10)

    def test_p99_matches_mm1_tail(self):
        engine = QueueingEngine(
            n_partitions=4, seed=43, skew_sigma=0.0, hot_episode_rate=0.0,
            samples_per_tick=512,
        )
        mu = DEFAULT_MU_PARTITION
        offered = 4 * mu * 0.6
        shares = np.full(4, 0.25)
        p99s = [engine.step(1.0, offered, shares).p99_ms for _ in range(300)]
        expected_ms = -np.log(0.01) / (mu * 0.4) * 1000.0
        assert np.mean(p99s) == pytest.approx(expected_ms, rel=0.15)

    def test_backlog_drains_after_burst(self):
        """Once an overload ends, the queue drains at mu - lambda."""
        engine = QueueingEngine(
            n_partitions=2, seed=44, skew_sigma=0.0, hot_episode_rate=0.0
        )
        shares = np.full(2, 0.5)
        for _ in range(10):
            engine.step(1.0, 2 * DEFAULT_MU_PARTITION * 1.5, shares)
        burst_backlog = engine.step(1.0, 0.0, shares).backlog
        for _ in range(60):
            stats = engine.step(1.0, 10.0, shares)
        assert stats.backlog < 0.05 * max(burst_backlog, 1.0)
