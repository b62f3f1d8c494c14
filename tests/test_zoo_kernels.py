"""The zoo's vectorised kernels against their scalar oracles.

``GbtPredictor`` screens its split candidates with prefix sums and
certifies the close calls with the scalar rule; ``GbtPredictor`` and
``MssaPredictor`` forecast with one sequential ``cumsum`` per step.
Both must reproduce the scalar code in ``tests/zoo_oracles.py`` bit for
bit: the same trees node for node, the same forecast floats.  The
series are the ones the screen was sized on — steady traces at
capacity_zoo's scale (period 288) and the shootout's four drift
workloads at period 24.
"""

import numpy as np
import pytest

from repro.config import default_config
from repro.elasticity import StaticStrategy
from repro.experiments.shootout import DRIFT_WORKLOADS, drift_workload_trace
from repro.prediction import get_predictor_spec
from repro.prediction import gbt as gbt_module
from repro.sim import CapacitySimulator, ElasticDbSimulator
from repro.workload.trace import LoadTrace

from . import zoo_oracles as oracle

#: (label, series, period): capacity_zoo-scale steady traces and the
#: shootout's drift workloads over their quiet + drifting days.
SERIES = [
    (f"steady-{seed}", np.concatenate(oracle.zoo_scale_series(seed)), 288)
    for seed in (1, 2)
] + [
    (f"{workload}-{seed}",
     drift_workload_trace(workload, seed=seed, n_days=16).as_rate_per_second(),
     24)
    for workload in DRIFT_WORKLOADS
    for seed in (7, 8)
]
LABELS = [label for label, _, _ in SERIES]


def forest_nodes(model, tree: int):
    """One tree of a fitted ``GbtPredictor`` as ``oracle.tree_nodes`` rows."""
    depth = model.max_depth
    n_splits = 2 ** depth - 1
    feature = model._split_feature[tree * n_splits:][:n_splits]
    threshold = model._split_threshold[tree * n_splits:][:n_splits]
    leaf = model._leaf_value[tree * (n_splits + 1):][: n_splits + 1]

    def walk(slot, level):
        if level == depth:
            return [("leaf", float(leaf[slot - n_splits]))]
        if np.isnan(threshold[slot]):
            first = (slot + 1) * 2 ** (depth - level) - 1 - n_splits
            return [("leaf", float(leaf[first]))]
        return (
            [("split", int(feature[slot]), float(threshold[slot]))]
            + walk(2 * slot + 1, level + 1)
            + walk(2 * slot + 2, level + 1)
        )

    return walk(0, 0)


@pytest.fixture(scope="module", params=SERIES, ids=LABELS)
def fitted(request):
    """(series, model, oracle base, oracle trees) per series."""
    _, series, period = request.param
    model = get_predictor_spec("gbt").for_period(period).fit(series)
    base, trees = oracle.gbt_fit(model, series)
    return series, model, base, trees


class TestGbtFit:
    def test_trees_are_the_scalar_trees_node_for_node(self, fitted):
        _, model, base, trees = fitted
        assert model._base == base
        assert len(trees) == model.n_trees
        for index, tree in enumerate(trees):
            assert forest_nodes(model, index) == oracle.tree_nodes(tree), index

    def test_forecasts_are_bitwise_the_scalar_walk(self, fitted):
        series, model, base, trees = fitted
        for cut in range(series.size - 48, series.size + 1, 6):
            history = series[:cut]
            ours = model.predict_horizon(history, 12)
            theirs = oracle.gbt_forecast(model, base, trees, history, 12)
            assert ours.tobytes() == theirs.tobytes(), cut


class TestSplitScreen:
    def test_sorted_column_quantiles_are_np_quantile(self):
        rng = np.random.default_rng(5)
        quantiles = np.linspace(0.0, 1.0, 10)[1:-1]
        for size in (1, 2, 3, 7, 16, 17, 100, 257, 3743):
            for column in (
                rng.normal(size=size),
                rng.integers(0, 4, size).astype(float),     # heavy ties
                np.cos(2 * np.pi * np.arange(size) / 24),
                np.full(size, 1250.0),
            ):
                rows = np.sort(column)[None, :]
                ours = gbt_module._sorted_quantiles(rows, quantiles)[0]
                assert ours.tobytes() == np.quantile(column, quantiles).tobytes()

    def test_slack_bounds_the_screen_twice_over(self):
        """Every candidate's screened gain is within half the slack of
        the scalar gain — on capacity_zoo's residuals, and on residuals
        riding a large offset, where the sum-of-squares term matters."""
        train, _ = oracle.zoo_scale_series(1)
        model = get_predictor_spec("gbt").for_period(288)
        anchors = np.arange(model.min_history, train.size)
        features = model._features(train, anchors)
        targets = train[anchors]
        rng = np.random.default_rng(3)
        grower = gbt_module._TreeGrower(features, 3, 8, 8)
        rows = np.arange(targets.size)
        for residual in (
            targets - targets.mean(),
            1e6 + rng.normal(size=targets.size),
            rows[rng.permutation(rows.size)] % 7 * 1e-3,
        ):
            for subset in (rows, rows[: rows.size // 3], rows[::5]):
                node = residual[subset]
                mean = float(node.mean())
                base_sse = float(((node - mean) ** 2).sum())
                order = np.argsort(grower.columns[:, subset], axis=1)
                values = np.take_along_axis(grower.columns[:, subset], order, 1)
                features_, thresholds, _, screen, slack = gbt_module._screen(
                    node, values, node[order] - mean, grower.quantiles, 8,
                    base_sse,
                )
                assert features_.size > 0
                for f, threshold, approx in zip(features_, thresholds, screen):
                    exact = gbt_module._exact_gain(
                        node, grower.columns[f, subset], threshold, base_sse
                    )
                    assert abs(approx - exact) <= slack / 2

    def test_same_partition_on_two_features_picks_the_first(self):
        """Feature 1 sorts its rows in another order than feature 0, but
        at their 4/9 quantiles both cut off the same 40 rows, so the
        scalar rule scores the two the same float and keeps feature 0.
        Their screens round apart — in the first column order feature
        1's comes out higher, so an argmax over the screen would take
        it; the certified walk may not.  With the columns swapped the
        other column is feature 0, and it is the one kept."""
        rng = np.random.default_rng(16)
        x = rng.permutation(90).astype(float)
        high = x >= 40     # the 4/9 quantile cuts at 39.56: 40 rows left
        other = high * 1000.0 + rng.random(90)
        residual = np.where(high, 3.0, -2.0) + rng.normal(0.0, 0.1, 90)
        quantiles = np.linspace(0.0, 1.0, 10)[1:-1]
        mean = float(residual.mean())
        base_sse = float(((residual - mean) ** 2).sum())
        for columns in ((x, other), (other, x)):
            features = np.column_stack(columns)
            grower = gbt_module._TreeGrower(features, 1, 8, 8)
            found, _, n_left, screen, _ = gbt_module._screen(
                residual, grower.sorted_columns, residual[grower.order] - mean,
                quantiles, 8, base_sse,
            )
            first, second = (
                screen[(found == f) & (n_left == 40)][0] for f in (0, 1)
            )
            assert first != second      # the case this test is about
            tree = oracle.fit_tree(features, residual, 0, 1, 8, 8)
            split_feature, threshold, leaves, _ = grower.grow(residual)
            assert tree[1] == 0
            assert (int(split_feature[0]), float(threshold[0])) == tree[1:3]
            assert leaves.tolist() == [tree[3][1], tree[4][1]]

    def test_the_screen_certifies_few_candidates(self, monkeypatch):
        calls = {"exact": 0, "nodes": 0}
        exact, best = gbt_module._exact_gain, gbt_module._best_split

        def counting_exact(*args):
            calls["exact"] += 1
            return exact(*args)

        def counting_best(*args):
            calls["nodes"] += 1
            return best(*args)

        monkeypatch.setattr(gbt_module, "_exact_gain", counting_exact)
        monkeypatch.setattr(gbt_module, "_best_split", counting_best)
        train, _ = oracle.zoo_scale_series(2)
        get_predictor_spec("gbt").for_period(288).fit(train)
        assert 0 < calls["nodes"] <= 40 * 7
        assert calls["exact"] <= calls["nodes"]


class TestMssaForecast:
    @pytest.mark.parametrize("label,series,period", SERIES, ids=LABELS)
    def test_forecasts_are_bitwise_the_scalar_recurrence(
        self, label, series, period
    ):
        model = get_predictor_spec("mssa").for_period(period).fit(series)
        for cut in range(series.size - 48, series.size + 1, 6):
            history = series[:cut]
            ours = model.predict_horizon(history, 12)
            theirs = oracle.mssa_forecast(model._coeffs, history, 12)
            assert ours.tobytes() == theirs.tobytes(), cut


class _Recorder(StaticStrategy):
    """A static strategy that keeps every history it is handed."""

    def __init__(self, machines):
        super().__init__(machines)
        self.seen = []

    def decide(self, slot, history_tps, current_machines):
        self.seen.append(history_tps)
        return super().decide(slot, history_tps, current_machines)


class TestLoopHistories:
    """The batch loops hand strategies views of one buffer, so a
    predictor's ``as_series`` copies nothing."""

    def test_capacity_sim_hands_out_views_of_its_history(self):
        config = default_config().with_interval(300.0)
        trace = LoadTrace(np.full(6, 300.0 * 100.0), slot_seconds=300.0)
        sim = CapacitySimulator(config, initial_machines=2,
                                history_seed=[1.0, 2.0])
        strategy = _Recorder(2)
        sim.run(trace, strategy)
        assert sim.history.tolist() == [1.0, 2.0] + [100.0] * 6
        assert [seen.size for seen in strategy.seen] == list(range(3, 9))
        for seen in strategy.seen:
            assert np.shares_memory(seen, sim.history)

    def test_elastic_sim_hands_out_views_of_its_history(self):
        config = default_config().with_interval(60.0)
        sim = ElasticDbSimulator(config, max_machines=4, initial_machines=2)
        strategy = _Recorder(2)
        sim.run(np.full(300, 500.0), strategy, history_seed_tps=[7.0])
        assert [seen.size for seen in strategy.seen] == list(range(2, 7))
        assert strategy.seen[-1].tolist() == [7.0] + [500.0] * 5
        assert all(
            np.shares_memory(seen, strategy.seen[-1]) for seen in strategy.seen
        )
