"""Tests for PStoreService — the end-to-end Section 6 glue."""

import numpy as np
import pytest

from repro.benchmark import ALL_PROCEDURES, b2w_schema, load_b2w_data
from repro.config import default_config
from repro.core import PStoreService
from repro.errors import SimulationError
from repro.hstore import Cluster, Transaction
from repro.prediction import LastValuePredictor, OnlinePredictor
from repro.prediction.base import Predictor
from repro.telemetry import Telemetry


class RampPredictor(Predictor):
    """Test double: always forecasts a constant future level."""

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


def make_cluster(nodes=2):
    cluster = Cluster(b2w_schema(), n_nodes=nodes, partitions_per_node=3,
                      n_buckets=192)
    load_b2w_data(cluster, n_stock=100, n_carts=200, n_checkouts=20, seed=1)
    return cluster


def service_config(interval=60.0):
    return default_config().with_interval(interval)


def get_cart_txn(i):
    from repro.benchmark import cart_id

    return Transaction(
        ALL_PROCEDURES["GetCart"], {"cart_id": cart_id(i % 200)}
    )


class TestTransactionPath:
    def test_execute_records_load(self):
        service = PStoreService(
            make_cluster(), service_config(), LastValuePredictor().fit([1.0])
        )
        for i in range(30):
            result = service.execute(get_cart_txn(i))
            assert result.committed
        service.advance_time(61.0)
        history = service.monitor.history_tps()
        assert history.size == 1
        assert history[0] == pytest.approx(0.5, rel=0.1)  # 30 txns / 60 s

    def test_submit_times_clamped_to_service_clock(self):
        service = PStoreService(
            make_cluster(), service_config(), LastValuePredictor().fit([1.0])
        )
        service.advance_time(100.0)
        txn = get_cart_txn(1)
        assert txn.submit_time == 0.0
        service.execute(txn)
        assert txn.submit_time == 100.0


class TestScaling:
    def test_scales_out_when_forecast_exceeds_capacity(self):
        """An oracle forecasting a big ramp must trigger a scale-out."""
        config = service_config(60.0)
        q = config.q
        telemetry = Telemetry()
        service = PStoreService(
            make_cluster(2), config, RampPredictor(q * 3.5), max_machines=6,
            telemetry=telemetry,
        )
        # Generate ~0.8q tps of real traffic for three intervals.
        rate = q * 0.8
        for interval in range(3):
            for k in range(int(rate * 60)):
                service.execute(get_cart_txn(k))
            service.advance_time(60.0)
        assert service.migrating or service.machines > 2
        chronicle = telemetry.chronicle
        assert (chronicle.by_kind("service.scale-out")
                or chronicle.by_kind("service.emergency"))

    def test_migration_completes_and_is_logged(self):
        config = service_config(60.0)
        q = config.q
        telemetry = Telemetry()
        service = PStoreService(
            make_cluster(2), config, RampPredictor(q * 3.5), max_machines=6,
            telemetry=telemetry,
        )
        rate = q * 0.8
        for interval in range(3):
            for k in range(int(rate * 60)):
                service.execute(get_cart_txn(k))
            service.advance_time(60.0)
        # Let the migration run out (advance in whole minutes, light load).
        for _ in range(30):
            if not service.migrating:
                break
            service.advance_time(60.0)
        assert not service.migrating
        assert service.machines > 2
        assert telemetry.chronicle.by_kind("service.move-complete")

    def test_max_machines_respected(self):
        config = service_config(60.0)
        q = config.q
        service = PStoreService(
            make_cluster(2), config, RampPredictor(q * 9.0), max_machines=3
        )
        for interval in range(3):
            for k in range(int(q * 0.5 * 60)):
                service.execute(get_cart_txn(k))
            service.advance_time(60.0)
        for _ in range(40):
            service.advance_time(60.0)
            if not service.migrating:
                break
        assert service.machines <= 3


class TestOnlineLearning:
    def test_strategy_appears_after_warmup(self):
        config = service_config(60.0)
        online = OnlinePredictor(
            LastValuePredictor(), refit_every=5, min_training=3
        )
        service = PStoreService(make_cluster(), config, online)
        assert service._strategy is None or not online.is_fitted
        for _ in range(4):
            service.advance_time(60.0)  # empty intervals still observed
        assert online.is_fitted
        assert service._strategy is not None


class TestSkewRebalancing:
    def test_hot_bucket_triggers_rebalance_event(self):
        config = service_config(60.0)
        cluster = make_cluster()
        telemetry = Telemetry()
        service = PStoreService(
            cluster,
            config,
            LastValuePredictor().fit([1.0]),
            skew_rebalancing=True,
            skew_threshold_share=0.2,
            telemetry=telemetry,
        )
        # Hammer one bucket far beyond its fair share.
        hot_bucket = cluster.bucket_of("CART-000000000007")
        cluster.record_bucket_access(hot_bucket, 5000)
        for b in range(cluster.n_buckets):
            if b != hot_bucket:
                cluster.record_bucket_access(b, 2)
        service.advance_time(61.0)
        assert telemetry.chronicle.by_kind("service.rebalance")

    def test_balanced_load_no_rebalance(self):
        cluster = make_cluster()
        telemetry = Telemetry()
        service = PStoreService(
            cluster,
            service_config(60.0),
            LastValuePredictor().fit([1.0]),
            skew_rebalancing=True,
            telemetry=telemetry,
        )
        for b in range(cluster.n_buckets):
            cluster.record_bucket_access(b, 10)
        service.advance_time(61.0)
        # Telemetry is on, so the absence is not an artefact of it.
        assert telemetry.chronicle.by_kind("forecast.snapshot")
        assert not telemetry.chronicle.by_kind("service.rebalance")


class TestValidation:
    def test_bad_dt(self):
        service = PStoreService(
            make_cluster(), service_config(), LastValuePredictor().fit([1.0])
        )
        with pytest.raises(SimulationError):
            service.advance_time(0.0)

    def test_bad_max_machines(self):
        with pytest.raises(SimulationError):
            PStoreService(
                make_cluster(),
                service_config(),
                LastValuePredictor().fit([1.0]),
                max_machines=0,
            )

    def test_status_line(self):
        service = PStoreService(
            make_cluster(), service_config(), LastValuePredictor().fit([1.0])
        )
        assert "machines=2" in service.status()
