"""Tests for the B2W trace-driven workload driver and loader."""

import pytest

from repro.benchmark import (
    ALL_PROCEDURES,
    B2WDriver,
    b2w_schema,
    load_b2w_data,
)
from repro.errors import SimulationError
from repro.hstore import Cluster, TransactionExecutor


@pytest.fixture
def setup():
    cluster = Cluster(b2w_schema(), n_nodes=2, partitions_per_node=3, n_buckets=96)
    load_b2w_data(cluster, n_stock=150, n_carts=200, n_checkouts=30, seed=7)
    executor = TransactionExecutor(cluster, seed=9)
    driver = B2WDriver(executor, n_stock=150, seed=11)
    return cluster, executor, driver


class TestLoader:
    def test_loads_expected_row_counts(self):
        cluster = Cluster(b2w_schema(), 1, 2, 32)
        load_b2w_data(cluster, n_stock=50, n_carts=80, n_checkouts=10)
        total = sum(
            cluster.partition(p).row_count() for p in cluster.partition_ids
        )
        assert total == 50 + 80 + 10

    def test_stock_has_no_initial_reservations(self):
        cluster = Cluster(b2w_schema(), 1, 2, 32)
        load_b2w_data(cluster, n_stock=20, n_carts=5, n_checkouts=0)
        from repro.benchmark import sku_id

        for i in range(20):
            assert cluster.get("stock", sku_id(i))["reserved"] == 0

    def test_deterministic(self):
        c1 = Cluster(b2w_schema(), 1, 2, 32)
        c2 = Cluster(b2w_schema(), 1, 2, 32)
        load_b2w_data(c1, n_stock=20, n_carts=30, n_checkouts=5, seed=3)
        load_b2w_data(c2, n_stock=20, n_carts=30, n_checkouts=5, seed=3)
        from repro.benchmark import cart_id

        assert c1.get("cart", cart_id(7)) == c2.get("cart", cart_id(7))

    def test_requires_stock(self):
        cluster = Cluster(b2w_schema(), 1, 2, 32)
        with pytest.raises(SimulationError):
            load_b2w_data(cluster, n_stock=0)


class TestDriver:
    def test_run_second_hits_target_rate(self, setup):
        _, _, driver = setup
        executed = driver.run_second(0.0, 120.0)
        assert 80 <= executed <= 200  # Poisson draw + composite overshoot

    def test_all_nineteen_procedures_exercised(self, setup):
        _, _, driver = setup
        for t in range(60):
            driver.run_second(float(t), 60.0)
        assert set(driver.txn_counts) == set(ALL_PROCEDURES)

    def test_low_abort_rate(self, setup):
        """The driver keeps its entity pools consistent, so only business
        aborts (out-of-stock, concurrent edits) remain."""
        _, executor, driver = setup
        for t in range(40):
            driver.run_second(float(t), 80.0)
        total = executor.committed + executor.aborted
        assert executor.aborted / total < 0.05

    def test_deterministic_given_seed(self):
        def run_once():
            cluster = Cluster(b2w_schema(), 1, 2, 32)
            load_b2w_data(cluster, n_stock=50, n_carts=50, n_checkouts=5, seed=1)
            executor = TransactionExecutor(cluster, seed=2)
            driver = B2WDriver(executor, n_stock=50, seed=3)
            for t in range(10):
                driver.run_second(float(t), 40.0)
            return dict(driver.txn_counts)

        assert run_once() == run_once()

    def test_negative_rate_rejected(self, setup):
        _, _, driver = setup
        with pytest.raises(SimulationError):
            driver.run_second(0.0, -1.0)

    def test_unknown_action_weights_rejected(self, setup):
        cluster, executor, _ = setup
        with pytest.raises(SimulationError):
            B2WDriver(executor, n_stock=10, action_weights={"hack": 1.0})

    def test_access_pattern_near_uniform(self, setup):
        """Sec 8.1: partition access skew stays small with random keys."""
        cluster, _, driver = setup
        for t in range(60):
            driver.run_second(float(t), 100.0)
        worst_excess, std = cluster.access_skew()
        assert worst_excess < 0.25
        assert std < 0.10
