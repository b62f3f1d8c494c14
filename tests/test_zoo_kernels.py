"""The zoo's vectorised kernels against their scalar oracles.

``GbtPredictor`` grows each tree a level at a time, screens every
node's split candidates with segment sums and certifies the close calls
with the scalar rule, and forecasts with one sequential ``cumsum`` per
step; ``MssaPredictor`` forecasts with one ``np.vecdot`` per step, and
``SparPredictor`` takes every (origin, tau) dot with one ``np.vecdot``.
All must reproduce the scalar code in ``tests/zoo_oracles.py`` bit for
bit: the same trees node for node, the same forecast floats.  mSSA's
rank-r fit is held to the full-SVD fit there within 1e-9 of the peak,
and its two Gram matrices, built from lagged products, to the GEMMs
they replace within the rounding of their update.
The series are the ones the screen was sized on — steady traces at
capacity_zoo's scale (period 288) and the shootout's four drift
workloads at period 24.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import default_config
from repro.elasticity import StaticStrategy
from repro.experiments.shootout import DRIFT_WORKLOADS, drift_workload_trace
from repro.prediction import get_predictor_spec
from repro.prediction import gbt as gbt_module
from repro.prediction import mssa as mssa_module
from repro.sim import CapacitySimulator, ElasticDbSimulator
from repro.workload import b2w_like_trace
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


def heap_nodes(feature, threshold, leaf, depth):
    """A heap-stored tree (``_TreeGrower`` has the layout) as
    ``oracle.tree_nodes`` rows."""
    n_splits = 2 ** depth - 1

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


def forest_nodes(model, tree: int):
    """One tree of a fitted ``GbtPredictor`` as ``oracle.tree_nodes`` rows."""
    depth = model.max_depth
    n_splits = 2 ** depth - 1
    return heap_nodes(
        model._split_feature[tree * n_splits:][:n_splits],
        model._split_threshold[tree * n_splits:][:n_splits],
        model._leaf_value[tree * (n_splits + 1):][: n_splits + 1],
        depth,
    )


def lay_out(grower, subsets):
    """A level layout of nodes with these rows: node after node, feature
    after feature, each node's flat sorted-column indices ascending."""
    n_features, n = grower.columns.shape
    position = np.argsort(grower.order, axis=1)
    return np.concatenate([
        f * n + np.sort(position[f, rows])
        for rows in subsets for f in range(n_features)
    ])


def screen_level(grower, residual, subsets):
    """``(geometry, screen, slack per node, base SSE per node)`` of a
    level whose nodes hold ``subsets`` of the rows."""
    laid = lay_out(grower, subsets)
    sizes = np.array([rows.size for rows in subsets])
    geometry = grower._geometry(laid, sizes)
    rows_laid = grower.order.take(laid)
    n_features = grower.columns.shape[0]
    centred, sse, slack = [], [], []
    start = 0
    for rows in subsets:
        node = residual[rows]
        mean = float(node.mean())
        block = rows_laid[start : start + n_features * rows.size]
        start += block.size
        centred.append(residual[block] - mean)
        sse.append(float(((node - mean) ** 2).sum()))
        slack.append(gbt_module._slack(node, sse[-1]))
    screen = grower._screen(geometry, np.concatenate(centred))
    return geometry, screen, slack, sse


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
        sizes = np.array([1, 2, 3, 7, 16, 17, 100, 257, 3743])
        lo, hi, gamma = gbt_module._quantile_points(sizes, quantiles)
        for j, size in enumerate(sizes):
            for column in (
                rng.normal(size=size),
                rng.integers(0, 4, size).astype(float),     # heavy ties
                np.cos(2 * np.pi * np.arange(size) / 24),
                np.full(size, 1250.0),
            ):
                rows = np.sort(column)
                ours = gbt_module._lerp(rows[lo[j]], rows[hi[j]], gamma[j])
                assert ours.tobytes() == np.quantile(column, quantiles).tobytes()

    def test_slack_bounds_the_screen_twice_over(self):
        """Every candidate's screened gain is within half its node's
        slack of the scalar gain — on capacity_zoo's residuals, and on
        residuals riding a large offset, where the sum-of-squares term
        matters — with three nodes screened as one level, so every sum
        must stay inside its own node's segment."""
        train, _ = oracle.zoo_scale_series(1)
        model = get_predictor_spec("gbt").for_period(288)
        anchors = np.arange(model.min_history, train.size)
        features = model._features(train, anchors)
        targets = train[anchors]
        rng = np.random.default_rng(3)
        grower = gbt_module._TreeGrower(features, 3, 8, 8)
        rows = np.arange(targets.size)
        subsets = [rows, rows[: rows.size // 3], rows[::5]]
        for residual in (
            targets - targets.mean(),
            1e6 + rng.normal(size=targets.size),
            rows[rng.permutation(rows.size)] % 7 * 1e-3,
        ):
            geometry, screen, slack, sse = screen_level(
                grower, residual, subsets
            )
            nodes = geometry.pick[0]
            assert set(nodes.tolist()) == {0, 1, 2}
            for j, f, threshold, approx in zip(
                nodes, geometry.features, geometry.thresholds, screen
            ):
                subset = subsets[j]
                exact = gbt_module._exact_gain(
                    residual[subset], grower.columns[f, subset], threshold,
                    sse[j],
                )
                assert abs(approx - exact) <= slack[j] / 2

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
        for columns in ((x, other), (other, x)):
            features = np.column_stack(columns)
            grower = gbt_module._TreeGrower(features, 1, 8, 8)
            geometry, screen, _, _ = screen_level(
                grower, residual, [np.arange(90)]
            )
            found, n_left = geometry.features, geometry.n_left
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


def grown_and_oracle(features, residual, depth, n_thresholds, min_leaf):
    """One tree from ``_TreeGrower`` and from ``oracle.fit_tree``, each
    as ``(tree_nodes rows, fitted)``."""
    grower = gbt_module._TreeGrower(features, depth, n_thresholds, min_leaf)
    feature, threshold, leaf, fitted = grower.grow(residual)
    tree = oracle.fit_tree(features, residual, 0, depth, n_thresholds, min_leaf)
    return (
        (heap_nodes(feature, threshold, leaf, depth), fitted.tobytes()),
        (oracle.tree_nodes(tree), oracle.tree_apply(tree, features).tobytes()),
    )


class TestLevelGrower:
    """The level-at-a-time grower against the recursive scalar
    ``oracle.fit_tree``, node for node, on the degenerate shapes a level
    layout could get wrong."""

    def test_a_constant_series_fits_the_scalar_forest(self):
        series = np.full(400, 1250.0)
        model = get_predictor_spec("gbt").for_period(24).fit(series)
        base, trees = oracle.gbt_fit(model, series)
        assert model._base == base
        for index, tree in enumerate(trees):
            assert forest_nodes(model, index) == oracle.tree_nodes(tree)
            assert tree[0] == "leaf"

    def test_heavy_ties(self):
        rng = np.random.default_rng(11)
        features = rng.integers(0, 4, (300, 5)).astype(float)
        residual = rng.normal(size=300) + features[:, 2]
        ours, theirs = grown_and_oracle(features, residual, 4, 8, 3)
        assert ours == theirs
        assert sum(row[0] == "split" for row in ours[0]) > 3

    def test_nodes_of_exactly_twice_min_leaf(self):
        """Median splits take 32 rows down to nodes of 8 = 2 * min_leaf
        rows, which are searched (7 splits); from 31 rows one node of
        the second level has 7 rows, which is not (6 splits)."""
        x = np.arange(32.0)
        residual = np.where(x < 16, -4.0, 4.0) + np.where(x % 16 < 8, -1.0, 1.0)
        residual += np.where(x % 8 < 4, -0.25, 0.25)
        for rows, splits in ((32, 7), (31, 6)):
            features = np.column_stack([x, x % 3])[:rows]
            ours, theirs = grown_and_oracle(features, residual[:rows], 3, 1, 4)
            assert ours == theirs
            assert [row[0] for row in ours[0]].count("split") == splits

    @pytest.mark.parametrize("rows,min_leaf,residual", [
        (7, 4, None),           # the root is under 2 * min_leaf
        (50, 4, 2.5),           # constant residuals: no split gains
        (1, 1, None),
    ])
    def test_every_node_a_leaf(self, rows, min_leaf, residual):
        rng = np.random.default_rng(rows)
        features = rng.normal(size=(rows, 3))
        values = (
            rng.normal(size=rows) if residual is None else np.full(rows, residual)
        )
        ours, theirs = grown_and_oracle(features, values, 3, 8, min_leaf)
        assert ours == theirs
        assert ours[0] == [ours[0][0]] and ours[0][0][0] == "leaf"

    def test_residuals_far_from_zero(self):
        """Every level centres the residuals on its own nodes' means: an
        offset the root removes must not reach its children, which in
        the first case are constant and so stay leaves."""
        x = np.arange(40.0)
        features = np.column_stack([x, x % 7])
        ours, theirs = grown_and_oracle(
            features, np.where(x < 20, 100.0, 200.0), 3, 1, 2
        )
        assert ours == theirs
        assert [row[0] for row in ours[0]] == ["split", "leaf", "leaf"]
        rng = np.random.default_rng(21)
        features = rng.integers(0, 6, (120, 3)).astype(float)
        residual = 50.0 + features[:, 1] + rng.normal(size=120)
        ours, theirs = grown_and_oracle(features, residual, 3, 8, 2)
        assert ours == theirs

    def test_columns_past_the_float_range(self):
        """Between these values ``b - a`` overflows, so a cut can fall
        outside its two order statistics (or be NaN); its left count is
        then counted in the column, as the scalar rule counts it."""
        mismatched = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for seed in range(200):
                rng = np.random.default_rng(seed)
                rows = int(rng.integers(5, 80))
                features = rng.choice(
                    [-1.7e308, -1e300, 0.0, 1.0, 1e300, 1.7e308], (rows, 3)
                )
                ours, theirs = grown_and_oracle(
                    features, rng.normal(size=rows), 3,
                    int(rng.integers(1, 9)), int(rng.integers(1, 4)),
                )
                mismatched += ours != theirs
        assert mismatched == 0

    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 90),
        n_features=st.integers(1, 4),
        levels=st.integers(1, 8),
        depth=st.integers(1, 4),
        n_thresholds=st.integers(1, 9),
        min_leaf=st.integers(1, 6),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_trees_are_the_scalar_trees(
        self, seed, rows, n_features, levels, depth, n_thresholds, min_leaf
    ):
        """Columns drawn from ``levels`` distinct values (ties on every
        level) and residuals with ties of their own."""
        rng = np.random.default_rng(seed)
        features = rng.integers(0, levels, (rows, n_features)) * rng.normal(
            size=n_features
        )
        residual = rng.integers(-3, 4, rows) * 0.5 + rng.normal(size=rows) * (
            seed % 2
        ) + rng.choice([0.0, 40.0])
        ours, theirs = grown_and_oracle(
            features, residual, depth, n_thresholds, min_leaf
        )
        assert ours == theirs


class TestSparKernel:
    @given(
        seed=st.integers(0, 2**32 - 1),
        origins=st.integers(1, 6),
        horizon=st.integers(1, 9),
        m=st.integers(1, 40),
        stride=st.integers(1, 3),
        scale=st.sampled_from([1e-300, 1e-8, 1.0, 1e8, 1e150]),
    )
    @settings(max_examples=300, deadline=None)
    def test_vecdot_rows_are_per_pair_dots(
        self, seed, origins, horizon, m, stride, scale
    ):
        """``np.vecdot`` over every (origin, tau) pair is the per-pair
        ``b @ row`` the per-tau Eq. 8 loop takes, bit for bit: one
        origin, one tau, strided rows and extreme magnitudes too."""
        rng = np.random.default_rng(seed)
        offsets = (rng.normal(size=(origins, m * stride)) * scale)[:, ::stride]
        coeff_b = rng.normal(size=(horizon, m * stride))[:, ::stride]
        coeff_b = coeff_b * rng.choice([1e-10, 1.0, 1e10], (horizon, 1))
        with np.errstate(over="ignore", invalid="ignore"):
            ours = np.vecdot(offsets[:, None, :], coeff_b[None])
            theirs = np.array([[b @ row for b in coeff_b] for row in offsets])
        assert np.array_equal(ours, theirs, equal_nan=True)
        finite = np.isfinite(ours)
        assert ours[finite].tobytes() == theirs[finite].tobytes()


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
            # The left-to-right per-lag sum the dots replaced rounds
            # apart by rounding only (<= 4.3e-15 of the peak seen).
            summed = oracle.mssa_forecast_sequential(model._coeffs, history, 12)
            assert np.abs(ours - summed).max() <= 1e-12 * series.max(), cut


def _gram_cases():
    """(label, series, window): every ``SERIES`` at its fit's window, and
    the shapes a diagonal update could get wrong at capacity_zoo's."""
    train = oracle.zoo_scale_series()[0]
    window = 289
    spiked_first, spiked_end = train.copy(), train.copy()
    spiked_first[window // 2] *= 1e6      # inside the first window
    spiked_end[-1] *= 1e6
    return [(label, series, period + 1) for label, series, period in SERIES] + [
        ("constant", np.full(10 * 24, 1250.0), 25),
        ("all-zero", np.zeros(10 * 24), 25),
        ("shortest", train[: 2 * window], window),
        ("spike-in-first-window", spiked_first, window),
        ("spike-at-end", spiked_end, window),
        # Row 0's dots run past one chunk: two whole ones and a part.
        ("past-a-dot-chunk",
         oracle.long_zoo_series()[: 25_000 + window - 1], window),
    ]


GRAM_CASES = _gram_cases()


def _page_gram_bound(gram: np.ndarray, lags: int) -> float:
    """``L * eps * max diag``: the diagonal update's error, a sum of up
    to ``L`` roundings of entries no larger than the largest diagonal."""
    return lags * np.finfo(float).eps * gram.diagonal().max()


class TestHankelGrams:
    """``_hankel_gram`` and ``_recurrence_gram`` against the GEMMs they
    replace: normwise, within the update's rounding (with a 1e6 spike in
    the first window, entries far from it are off by up to ~2e-7
    relative; the norm is what ``eigh`` sees)."""

    @pytest.mark.parametrize(
        "label,series,lags", GRAM_CASES, ids=[c[0] for c in GRAM_CASES]
    )
    def test_window_gram_is_the_page_gram(self, label, series, lags):
        page = np.lib.stride_tricks.sliding_window_view(series, lags)
        theirs = page.T @ page
        ours = mssa_module._hankel_gram(series, lags)
        assert np.array_equal(ours, ours.T)
        assert np.abs(ours - theirs).max() <= _page_gram_bound(theirs, lags)

    @pytest.mark.parametrize(
        "label,series,lags", GRAM_CASES, ids=[c[0] for c in GRAM_CASES]
    )
    def test_recurrence_gram_is_the_design_gram(self, label, series, lags):
        lagged = np.lib.stride_tricks.sliding_window_view(series, lags)
        design = np.concatenate(
            [np.ones((lagged.shape[0], 1)), lagged[:, -2::-1]], axis=1
        )
        targets = lagged[:, -1]
        theirs = design.T @ design
        gram, rhs = mssa_module._recurrence_gram(series, lags)
        bound = _page_gram_bound(theirs, lags)
        assert np.array_equal(gram, gram.T)
        assert np.abs(gram - theirs).max() <= bound
        assert np.abs(rhs - design.T @ targets).max() <= bound

    def test_grams_and_forecasts_are_bitwise_at_any_thread_count(
        self, tmp_path
    ):
        """At capacity_zoo's scale, under 1, 2 and 4 OpenBLAS threads:
        both Grams of the training series and the kernel's forecasts
        from every evaluation origin with one set of coefficients."""
        train, evaluation = oracle.zoo_scale_series()
        model = get_predictor_spec("mssa").for_period(288).fit(train)
        coeffs = tmp_path / "coeffs.npy"
        np.save(coeffs, model._coeffs)
        root = Path(__file__).resolve().parents[1]
        code = (
            "import hashlib, sys; import numpy as np; "
            "sys.path[:0] = [%r, %r]; "
            "from repro.prediction import get_predictor_spec, mssa; "
            "from tests.zoo_oracles import zoo_scale_series; "
            "train, evaluation = zoo_scale_series(); "
            "series = np.concatenate([train, evaluation]); "
            "model = get_predictor_spec('mssa').for_period(288); "
            "model._coeffs = np.load(%r); "
            "origins = np.arange(train.size - 1, series.size - 1); "
            "parts = [mssa._hankel_gram(train, 289), "
            "*mssa._recurrence_gram(train, 289), "
            "model._forecasts(series, origins, 7)]; "
            "print(hashlib.sha256(b''.join(p.tobytes() for p in parts))"
            ".hexdigest())"
        ) % (str(root / "src"), str(root), str(coeffs))
        digests = {
            threads: subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "OPENBLAS_NUM_THREADS": str(threads)},
                capture_output=True, text=True, check=True,
            ).stdout.strip()
            for threads in (1, 2, 4)
        }
        assert len(set(digests.values())) == 1, digests

    def test_grams_past_a_dot_chunk_are_bitwise_at_one_and_two_threads(
        self,
    ):
        """A series of more than 40,000 slots: row 0's dots are longer
        than OpenBLAS runs on one thread, so they go in chunks summed in
        a fixed order, and both Grams are the same float at 1 and 2
        threads."""
        root = Path(__file__).resolve().parents[1]
        code = (
            "import hashlib, sys; "
            "sys.path[:0] = [%r, %r]; "
            "from repro.prediction import mssa; "
            "from tests.zoo_oracles import long_zoo_series; "
            "series = long_zoo_series(); "
            "parts = [mssa._hankel_gram(series, 289), "
            "*mssa._recurrence_gram(series, 289)]; "
            "print(hashlib.sha256(b''.join(p.tobytes() for p in parts))"
            ".hexdigest())"
        ) % (str(root / "src"), str(root))
        digests = {
            threads: subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "OPENBLAS_NUM_THREADS": str(threads)},
                capture_output=True, text=True, check=True,
            ).stdout.strip()
            for threads in (1, 2)
        }
        assert len(set(digests.values())) == 1, digests


#: (label, series, period, evaluation slots): capacity_zoo's 14 + 2
#: days, the conformance suite's series (tests/test_predictor_zoo.py)
#: and the drift workloads; the fit sees all but the evaluation slots.
MSSA_FITS = [
    ("zoo-scale", np.concatenate(oracle.zoo_scale_series()), 288,
     oracle.ZOO_EVAL_DAYS * 288),
    ("conformance",
     b2w_like_trace(
         n_days=12, slot_seconds=3600.0, seed=13, base_level=1250.0 * 3600.0
     ).as_rate_per_second(),
     24, 48),
] + [(label, series, period, 48) for label, series, period in SERIES
     if period == 24]


def mssa_evaluation(model, series, evaluation):
    """``model``'s forecasts from every evaluation origin."""
    origins = np.arange(series.size - evaluation - 1,
                        series.size - oracle.ZOO_HORIZON)
    return model.forecasts(series, origins, oracle.ZOO_HORIZON)


class TestMssaFit:
    """The rank-r fit (window Gram eigenvectors, convolved anti-diagonal
    sums) against the full SVD of the page matrix, and the recurrence
    solve's well-posedness.  Both hold to 1e-9 of the series' peak: the
    two factorisations round differently, and a solve that amplified
    that rounding is what the relative ridge removed."""

    @pytest.mark.parametrize(
        "label,series,period,evaluation", MSSA_FITS,
        ids=[fit[0] for fit in MSSA_FITS],
    )
    def test_forecasts_match_the_full_svd_fit(
        self, label, series, period, evaluation
    ):
        train = series[:-evaluation]
        model = get_predictor_spec("mssa").for_period(period).fit(train)
        ours = mssa_evaluation(model, series, evaluation)
        model._coeffs = oracle.mssa_fit(model, train)
        theirs = mssa_evaluation(model, series, evaluation)
        assert np.abs(ours - theirs).max() <= 1e-9 * series.max()

    @pytest.mark.parametrize(
        "label,series,period,evaluation", MSSA_FITS,
        ids=[fit[0] for fit in MSSA_FITS],
    )
    def test_rounding_noise_in_the_input_stays_rounding_noise(
        self, label, series, period, evaluation
    ):
        train = series[:-evaluation]
        noise = np.random.default_rng(0).standard_normal(train.size)
        clean, nudged = (
            mssa_evaluation(
                get_predictor_spec("mssa").for_period(period).fit(values),
                series, evaluation,
            )
            for values in (train, train * (1.0 + 1e-13 * noise))
        )
        assert np.abs(nudged - clean).max() <= 1e-9 * series.max()


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
