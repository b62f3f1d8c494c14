"""Integration tests: the paper's headline claims at reduced scale.

These drive the complete stack (workload -> prediction -> planning ->
migration -> queueing) end to end.  They are slower than unit tests but
sized to stay well under a minute each.
"""

import numpy as np
import pytest

from repro.config import default_config
from repro.elasticity import PStoreStrategy, StrategySpec
from repro.experiments import benchmark_setup, fig09
from repro.sim import ElasticDbSimulator


@pytest.fixture(scope="module")
def one_day():
    """One benchmark day (compressed) with a fitted SPAR model."""
    return benchmark_setup(eval_days=1, seed=55)


class TestHeadlineClaims:
    """The Fig. 9 / Table 2 orderings on a single benchmark day."""

    @pytest.fixture(scope="class")
    def runs(self):
        """Fig. 9's four approaches, each run on the same setup."""
        setup = benchmark_setup(eval_days=1, seed=55)
        return {
            name: fig09.run_approach(
                StrategySpec.parse(spec), setup, initial_machines=initial
            )
            for name, spec, initial in fig09.APPROACH_SPECS
        }

    def test_pstore_beats_reactive_on_violations(self, runs):
        pstore = sum(runs["p-store"].sla_violations().values())
        reactive = sum(runs["reactive"].sla_violations().values())
        assert pstore < reactive

    def test_pstore_roughly_matches_peak_static_quality(self, runs):
        pstore = sum(runs["p-store"].sla_violations().values())
        static4 = sum(runs["static-4"].sla_violations().values())
        assert pstore < static4

    def test_pstore_uses_about_half_of_peak_machines(self, runs):
        assert runs["p-store"].average_machines < 0.65 * 10

    def test_static_peak_is_cleanest(self, runs):
        static10 = sum(runs["static-10"].sla_violations().values())
        pstore = sum(runs["p-store"].sla_violations().values())
        assert static10 <= pstore

    def test_pstore_capacity_stays_ahead_of_load(self, runs):
        """The red line of Fig. 9d: machine capacity above throughput
        in the vast majority of seconds."""
        run = runs["p-store"]
        config = default_config()
        capacity = run.machines * config.q_hat
        ahead = np.mean(capacity >= run.offered_tps)
        assert ahead > 0.95


class TestPredictiveTiming:
    def test_pstore_scales_before_the_morning_ramp(self, one_day):
        """P-Store's first scale-out must *start* while the load is
        still well below the capacity it is adding."""
        config = one_day.config
        simulator = ElasticDbSimulator(
            config, max_machines=10, initial_machines=2, seed=11
        )
        result = simulator.run(
            one_day.offered_tps,
            PStoreStrategy(config, one_day.spar),
            history_seed_tps=one_day.train_interval_tps,
        )
        starts = np.nonzero(
            result.migrating[1:] & ~result.migrating[:-1]
        )[0]
        assert starts.size >= 1
        first = int(starts[0]) + 1
        machines_before = result.machines[first - 1]
        load_at_start = result.offered_tps[first]
        # Still under the *current* capacity when the move begins.
        assert load_at_start < machines_before * config.q_hat


class TestRowLevelConsistency:
    def test_migration_under_live_traffic_preserves_data(self):
        """Scale out and back in while the B2W driver runs; every row
        remains reachable and the bucket index stays consistent."""
        from repro.benchmark import B2WDriver, b2w_schema, load_b2w_data
        from repro.hstore import Cluster, TransactionExecutor
        from repro.squall import ClusterMigrator

        config = default_config()
        cluster = Cluster(
            b2w_schema(), n_nodes=2, partitions_per_node=3, n_buckets=192
        )
        load_b2w_data(cluster, n_stock=300, n_carts=800, n_checkouts=80, seed=2)
        executor = TransactionExecutor(cluster, seed=3)
        driver = B2WDriver(executor, n_stock=300, seed=4)
        migrator = ClusterMigrator(cluster, config)

        stock_total_before = sum(
            cluster.get("stock", f"SKU-{i:08d}")["quantity"]
            for i in range(300)
        )

        t = 0.0
        for target in (5, 3):
            migrator.start_move(target)
            while migrator.migrating:
                driver.run_second(t, rate_tps=60.0)
                migrator.advance(2.0)
                t += 1.0
        assert cluster.n_nodes == 3

        # Data evenly spread after the final move.
        for share in cluster.data_fractions_by_node().values():
            assert share == pytest.approx(1 / 3, abs=0.06)

        # Stock conservation: quantity only decreases via purchases.
        stock_total_after = sum(
            cluster.get("stock", f"SKU-{i:08d}")["quantity"]
            for i in range(300)
        )
        assert stock_total_after <= stock_total_before
        assert executor.committed > 0
        # No unexpected aborts (business aborts only).
        assert executor.aborted < 0.1 * executor.committed
