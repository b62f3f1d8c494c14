"""Gradient-boosted regression trees over lag + calendar features.

The zoo's machine-learning contender (Sibyl forecasts time-evolving
workloads with exactly this model family): boosted depth-limited
regression trees fitted on

* **lag features** — the load 1, 2, 3 slots ago plus the seasonal lags
  ``period`` and ``period + 1`` slots ago, and
* **calendar features** — sine/cosine of the slot-of-period phase (two
  harmonics), assuming the series starts at phase zero (the capacity
  simulators always pass history from trace slot 0).

Everything is hand-rolled numpy: greedy SSE splits over quantile
candidate thresholds, no row/feature subsampling, so training is fully
deterministic — two fits on the same series produce bit-identical trees
and forecasts, which the sweep cache and the conformance suite rely on.

The split rule is the scalar one — walk every (feature, threshold)
candidate in order, score it as the parent's SSE minus the two
children's, keep the first that beats the best by more than ``1e-12`` —
but a candidate is scored that way only when a cheap prefix-sum screen
cannot decide the comparison (:func:`_screen` has the error bound that
makes this exact, :func:`_best_split` the walk).  Multi-step forecasts
are recursive: each predicted slot is appended to the lag buffer before
predicting the next, and every step walks all trees at once.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..errors import PredictionError
from .base import Predictor

_EPS = float(np.finfo(float).eps)
#: The split screen's error bound, relative (derived in :func:`_screen`).
_SLACK = 8.0 * _EPS


def _sorted_quantiles(rows: np.ndarray, quantiles: np.ndarray) -> np.ndarray:
    """``np.quantile(row, quantiles)`` for every row of ``rows``, each
    already sorted ascending — bit-identical: numpy's ``linear`` method
    is a lerp between the two order statistics around ``(m - 1) * q``
    (with its ``gamma >= 0.5`` branch), and a sorted row holds them at
    those indices."""
    m = rows.shape[1]
    virtual = (m - 1) * quantiles
    lo = np.floor(virtual)
    gamma = virtual - lo
    lo = np.minimum(lo.astype(np.intp), m - 1)
    hi = np.minimum(lo + 1, m - 1)
    a = rows[:, lo]
    b = rows[:, hi]
    diff = b - a
    out = a + diff * gamma
    high = gamma >= 0.5
    out[:, high] = (b - diff * (1 - gamma))[:, high]
    return out


def _exact_gain(
    residual: np.ndarray, column: np.ndarray, threshold: float,
    base_sse: float,
) -> float:
    """The scalar rule's gain of splitting a node at ``column <= threshold``."""
    mask = column <= threshold
    left = residual[mask]
    right = residual[~mask]
    sse = (
        float(((left - left.mean()) ** 2).sum())
        + float(((right - right.mean()) ** 2).sum())
    )
    return base_sse - sse


def _screen(
    residual: np.ndarray,
    values: np.ndarray,
    centred: np.ndarray,
    quantiles: np.ndarray,
    min_leaf: int,
    base_sse: float,
):
    """Every usable split of a node, in the scalar rule's scan order,
    with an approximate gain and the bound on its error.

    ``residual`` holds the node's ``m`` residuals in row order;
    ``values`` / ``centred`` are each feature's sorted column and the
    node-centred residual ``fl(r - mean)`` in that feature's sort order.
    Returns ``(features, thresholds, n_left, screen, slack)``.

    *Screen.*  With ``S_L``, ``S_R`` the sums of ``centred`` left and
    right of a threshold (sums between consecutive thresholds,
    accumulated from either end), the gain is
    ``G + S^2/m = S_L^2/n_L + S_R^2/n_R`` in exact arithmetic, where
    ``G`` is the real SSE reduction and ``S = S_L + S_R``.

    *Bound.*  Let ``u = eps / 2``, ``Q`` the node's SSE about its float
    mean and ``R`` its sum of squared residuals.  Any float summation of
    ``n`` terms, in any order, is within ``n u sum |x|`` of the real sum,
    and ``sum |c| <= sqrt(n Q)``.  So each screened square is within
    ``2 (n + 1) u Q_side`` of the real one, the roundings of the screen's
    own squares, divisions and addition add ``3 u Q``: the screen is
    within ``(2m + 5) u Q`` of ``G + S^2/m``.  The scalar rule's three
    SSEs are within ``(m + 3) u Q`` (node) and ``(n + 3) u Q_side``
    (children) of the real ones about their float means; the node term
    is ``G``'s ``SSE + S^2/m`` (the same ``S^2/m`` as the screen's, so
    it cancels) and each child's adds ``(side sum)^2 / n <= n^2 u^2
    R_side``; its two subtractions add ``4 u Q``.  In total the two gains
    differ by at most ``(4m + 17) u Q + m^2 u^2 R``; the ``slack``
    returned, ``_SLACK (m + 2) (Q + (m + 1) eps R)``, is at least twice
    that, which also covers evaluating it and ``screen +- slack`` in
    floats.
    """
    m = residual.size
    # One sorted quantile row per feature; np.unique per row = sort +
    # drop repeats.
    cuts = np.sort(_sorted_quantiles(values, quantiles), axis=1)
    fresh = np.ones(cuts.shape, dtype=bool)
    fresh[:, 1:] = cuts[:, 1:] != cuts[:, :-1]
    n_left = np.empty(cuts.shape, dtype=np.intp)
    for feature in range(cuts.shape[0]):
        n_left[feature] = np.searchsorted(values[feature], cuts[feature], "right")
    features, ranks = np.nonzero(
        fresh & (n_left >= min_leaf) & (m - n_left >= min_leaf)
    )
    n_l = n_left[features, ranks]
    n_r = m - n_l
    # Sums between consecutive cuts.  A cut with every row on its left
    # (never usable) starts its segment at the last row instead, so no
    # segment reaches into the next feature's; a repeated cut's empty
    # segment, which reduceat reads as one element, is zeroed.
    starts = np.zeros((cuts.shape[0], cuts.shape[1] + 1), dtype=np.intp)
    np.minimum(n_left, m - 1, out=starts[:, 1:])
    starts += np.arange(cuts.shape[0])[:, None] * m
    segments = np.add.reduceat(centred.ravel(), starts.ravel()).reshape(
        starts.shape
    )
    segments[:, :-1][starts[:, 1:] == starts[:, :-1]] = 0.0
    s_l = np.cumsum(segments, axis=1)[features, ranks]
    s_r = np.cumsum(segments[:, ::-1], axis=1)[:, -2::-1][features, ranks]
    screen = s_l * s_l / n_l + s_r * s_r / n_r
    slack = _SLACK * (m + 2) * (
        base_sse + (m + 1) * _EPS * float((residual * residual).sum())
    )
    return features, cuts[features, ranks], n_l, screen, slack


def _best_split(
    residual: np.ndarray,
    columns: np.ndarray,
    rows: np.ndarray,
    values: np.ndarray,
    centred: np.ndarray,
    quantiles: np.ndarray,
    min_leaf: int,
    base_sse: float,
) -> Optional[Tuple[int, float]]:
    """The scalar split search, screened and certified: ``(feature,
    threshold)``, or ``None`` for a leaf.

    ``columns[f, rows]`` is the node's feature ``f`` in row order, what
    :func:`_exact_gain` reads; the rest is :func:`_screen`'s input.  The
    walk is the scalar one over the candidates in (feature, threshold)
    order, with the best gain so far held as a bracket: a candidate is
    accepted when its screened gain minus the slack beats the bracket's
    top by ``1e-12``, rejected when plus the slack it does not beat the
    bracket's bottom, and otherwise scored exactly (with the incumbent,
    if that was only bracketed) and decided by the scalar comparison
    itself.  Every decision is the scalar one, so the split is too; a
    candidate on the incumbent's partition (same feature, same left
    count) scores exactly the same and is rejected outright.
    """
    features, thresholds, n_left, screen, slack = _screen(
        residual, values, centred, quantiles, min_leaf, base_sse
    )

    def exact(i: int) -> float:
        return _exact_gain(
            residual, columns[feature_of[i]][rows], thresholds[i], base_sse
        )

    feature_of, left_of = features.tolist(), n_left.tolist()
    best: Optional[int] = None
    lo_best = hi_best = best_gain = 0.0   # best_gain: exact, or None
    for i, (low, high) in enumerate(
        zip((screen - slack).tolist(), (screen + slack).tolist())
    ):
        if best is not None and (
            feature_of[i] == feature_of[best] and left_of[i] == left_of[best]
        ):
            continue
        if low > hi_best + 1e-12:
            best, lo_best, hi_best, best_gain = i, low, high, None
            continue
        if high <= lo_best + 1e-12:
            continue
        if best_gain is None:
            best_gain = lo_best = hi_best = exact(best)
        gain = exact(i)
        if gain > best_gain + 1e-12:
            best, lo_best, hi_best, best_gain = i, gain, gain, gain
    if best is None:
        return None
    return feature_of[best], float(thresholds[best])


class _TreeGrower:
    """Grows depth-limited trees on one fit's feature matrix.

    Each feature column is sorted once, here: every root holds all rows,
    and a child's sort orders are its parent's filtered by membership.
    A tree is stored complete, as a level-order heap (slot ``h`` has
    children ``2h + 1`` and ``2h + 2``): ``2^d - 1`` split slots
    (feature, threshold; ``NaN`` where the node is a leaf) and ``2^d``
    leaf values, a leaf above the bottom copied to every bottom slot
    under it.  So every walk is ``d`` steps long and
    :meth:`GbtPredictor._forecasts` takes all trees' steps at once.
    """

    def __init__(self, features, max_depth, n_thresholds, min_leaf):
        self.columns = np.ascontiguousarray(features.T)
        self.order = np.argsort(self.columns, axis=1)
        self.sorted_columns = np.take_along_axis(self.columns, self.order, 1)
        self.quantiles = np.linspace(0.0, 1.0, n_thresholds + 2)[1:-1]
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.n_splits = 2 ** max_depth - 1

    def grow(self, residual: np.ndarray):
        """One tree on ``residual``: ``(split_feature, split_threshold,
        leaf_value, fitted)``, ``fitted`` being each row's leaf value."""
        self.residual = residual
        self.split_feature = np.zeros(self.n_splits, dtype=np.intp)
        self.split_threshold = np.full(self.n_splits, np.nan)
        self.leaf_value = np.empty(self.n_splits + 1)
        self.fitted = np.empty(residual.size)
        rows = np.arange(residual.size)
        self._node(0, 0, rows, self.order, self.sorted_columns)
        return (self.split_feature, self.split_threshold, self.leaf_value,
                self.fitted)

    def _searches(self, depth: int, rows: np.ndarray) -> bool:
        return depth < self.max_depth and rows.size >= 2 * self.min_leaf

    def _node(self, slot, depth, rows, order, values) -> None:
        node_residual = self.residual[rows]
        mean = float(node_residual.mean())
        split = None
        if self._searches(depth, rows):
            base_sse = float(((node_residual - mean) ** 2).sum())
            centred = self.residual.take(order)
            centred -= mean
            split = _best_split(
                node_residual, self.columns, rows, values, centred,
                self.quantiles, self.min_leaf, base_sse,
            )
        if split is None:
            self.fitted[rows] = mean
            span = 2 ** (self.max_depth - depth)
            first = (slot + 1) * span - 1 - self.n_splits
            self.leaf_value[first : first + span] = mean
            return
        feature, threshold = split
        self.split_feature[slot] = feature
        self.split_threshold[slot] = threshold
        goes_left = self.columns[feature, rows] <= threshold
        for child, child_rows in (
            (2 * slot + 1, rows[goes_left]), (2 * slot + 2, rows[~goes_left]),
        ):
            child_order = child_values = None
            if self._searches(depth + 1, child_rows):
                member = np.zeros(self.residual.size, dtype=bool)
                member[child_rows] = True
                keep = np.flatnonzero(member[order])
                child_order = order.take(keep).reshape(order.shape[0], -1)
                child_values = values.take(keep).reshape(order.shape[0], -1)
            self._node(child, depth + 1, child_rows, child_order, child_values)


class GbtPredictor(Predictor):
    """Gradient-boosted-trees load predictor.

    Parameters
    ----------
    period:
        slots per season (drives the seasonal lags and phase features).
    n_trees, max_depth, learning_rate:
        the usual boosting knobs; defaults favour seconds-fast fits.
    n_thresholds:
        candidate split thresholds per feature (feature quantiles).
    min_leaf:
        minimum samples per leaf.
    """

    name = "gbt"

    def __init__(
        self,
        period: int,
        n_trees: int = 40,
        max_depth: int = 3,
        learning_rate: float = 0.15,
        n_thresholds: int = 8,
        min_leaf: int = 8,
    ):
        super().__init__()
        if period < 2:
            raise PredictionError(f"period must be >= 2 slots (got {period})")
        if n_trees < 1 or max_depth < 1 or min_leaf < 1 or n_thresholds < 1:
            raise PredictionError(
                "n_trees, max_depth, n_thresholds and min_leaf must be >= 1"
            )
        if not 0 < learning_rate <= 1:
            raise PredictionError(
                f"learning_rate must be in (0, 1] (got {learning_rate})"
            )
        self.period = period
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.n_thresholds = n_thresholds
        self.min_leaf = min_leaf
        self.lags: Tuple[int, ...] = (1, 2, 3, period, period + 1)
        self.min_history = max(self.lags)
        self.min_fit = self.min_history + 4 * min_leaf
        self._base: float = 0.0
        # The forest, tree after tree, each array flat (_TreeGrower has
        # the layout); set by _fit.
        self._split_feature: Optional[np.ndarray] = None
        self._split_threshold: Optional[np.ndarray] = None
        self._leaf_value: Optional[np.ndarray] = None
        self._phases: Optional[np.ndarray] = None
        # Where a walk goes left from each split slot: a split slot on
        # the levels above the last, a leaf below it.  Right is + 1.
        n_splits = 2 ** max_depth - 1
        tree = np.arange(n_trees)[:, None]
        left = 2 * np.arange(n_splits) + 1
        self._left_child = np.where(
            left < n_splits, tree * n_splits + left,
            tree * (n_splits + 1) + left - n_splits,
        ).ravel()
        self._roots = tree.ravel() * n_splits

    def _features(self, values: np.ndarray, anchors: np.ndarray) -> np.ndarray:
        """Feature rows predicting ``values[anchor]`` from its past."""
        columns = [values[anchors - lag] for lag in self.lags]
        phase = 2.0 * math.pi * (anchors % self.period) / self.period
        columns += [np.sin(phase), np.cos(phase),
                    np.sin(2 * phase), np.cos(2 * phase)]
        return np.column_stack(columns)

    def _fit(self, arr: np.ndarray) -> None:
        anchors = np.arange(self.min_history, arr.size)
        features = self._features(arr, anchors)
        targets = arr[anchors]
        self._base = float(targets.mean())
        prediction = np.full(targets.size, self._base)
        grower = _TreeGrower(
            features, self.max_depth, self.n_thresholds, self.min_leaf
        )
        trees = []
        for _ in range(self.n_trees):
            *tree, fitted = grower.grow(targets - prediction)
            prediction = prediction + self.learning_rate * fitted
            trees.append(tree)
        self._split_feature, self._split_threshold, self._leaf_value = (
            np.concatenate(part) for part in zip(*trees)
        )

    def _forecasts(
        self, arr: np.ndarray, origins: np.ndarray, horizon: int
    ) -> np.ndarray:
        lags = np.array(self.lags)
        n_lags = lags.size
        history = self.min_history
        # Per origin, newest last; each forecast is fed back as a lag.
        buffer = np.empty((origins.size, history + horizon))
        buffer[:, :history] = arr[origins[:, None] + np.arange(1 - history, 1)]
        rows = np.empty((origins.size, n_lags + 4))
        # Each step's calendar features, per origin.
        phases = self._phase_features()[
            (origins[:, None] + np.arange(1, horizon + 1)) % self.period
        ]
        # terms[:, 0] = 0.0 is the start of the sum the leaves are added
        # to, left to right, by one sequential cumsum per row.
        terms = np.zeros((origins.size, self.n_trees + 1))
        # Row r's split slots start at r * slots in a flat step table,
        # and so do its walks (the leaves' index is taken back out).
        row_start = np.arange(origins.size)[:, None] * self._left_child.size
        left_child = self._left_child + row_start
        roots = self._roots + row_start
        for step, end in enumerate(range(history, history + horizon)):
            rows[:, :n_lags] = buffer.take(end - lags, axis=1)
            rows[:, n_lags:] = phases[:, step]
            # Where each split slot sends each row: left child, or + 1.
            step_to = (
                left_child
                + (rows.take(self._split_feature, axis=1) > self._split_threshold)
            ).ravel()
            node = roots
            for _ in range(self.max_depth):
                node = step_to[node]
            terms[:, 1:] = self._leaf_value[node - row_start]
            value = self._base + self.learning_rate * terms.cumsum(axis=1)[:, -1]
            # Clipped before it is fed back as a lag.  (A -0.0 becomes
            # 0.0 here, where max(value, 0.0) kept it; no split tells
            # the two apart and the final clip makes the output 0.0.)
            np.maximum(value, 0.0, out=buffer[:, end])
        return buffer[:, history:]

    def _phase_features(self) -> np.ndarray:
        """The four calendar features of each slot-of-period phase, with
        ``math.sin`` / ``math.cos``: a forecast row's phase is one of
        ``period``, so the table is built once."""
        if self._phases is None:
            self._phases = np.array([
                (math.sin(phase), math.cos(phase),
                 math.sin(2 * phase), math.cos(2 * phase))
                for phase in (
                    2.0 * math.pi * slot / self.period
                    for slot in range(self.period)
                )
            ])
        return self._phases

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GbtPredictor(period={self.period}, trees={self.n_trees}, "
            f"fitted={self._fitted})"
        )
