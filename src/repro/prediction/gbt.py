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
but a candidate is scored that way only when a cheap segment-sum screen
cannot decide the comparison (:meth:`_TreeGrower._screen` has the error
bound that makes this exact, :func:`_best_split` the walk).  A tree
grows a level at a time: every node of a level is screened in one pass
of numpy calls, and each node keeps its own mean, SSE and walk.
Multi-step forecasts are recursive: each predicted slot is appended to
the lag buffer before predicting the next, and every step walks all
trees at once.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from ..errors import PredictionError
from .base import Predictor

#: Levels under a root split one grower keeps, least recently used
#: evicted first (a level-1 layout is 8 bytes per feature per row).  In
#: capacity_zoo's fit 40 trees have 14 root splits, and 4 kept levels
#: serve 25 to 27 of the 40 trees.
BELOW_ROOT_LEVELS = 4

_EPS = float(np.finfo(float).eps)
#: The split screen's error bound, relative (derived in
#: :meth:`_TreeGrower._screen`).
_SLACK = 8.0 * _EPS


def _quantile_points(sizes: np.ndarray, quantiles: np.ndarray):
    """Where ``np.quantile(segment, quantiles)`` reads a sorted segment
    of each size: ``(lo, hi, gamma)``, each ``(sizes, quantiles)``.
    numpy's ``linear`` method lerps (:func:`_lerp`) between the order
    statistics at ``lo`` and ``hi`` around ``(size - 1) * q``."""
    last = (sizes - 1)[:, None]
    virtual = last * quantiles
    lo = np.floor(virtual)
    gamma = virtual - lo
    lo = np.minimum(lo.astype(np.intp), last)
    return lo, np.minimum(lo + 1, last), gamma


def _lerp(a: np.ndarray, b: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """``np.quantile``'s lerp between order statistics ``a`` and ``b``,
    with its ``gamma >= 0.5`` branch: bit-identical."""
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)


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


def _slack(residual: np.ndarray, base_sse: float) -> float:
    """The bound on the error of a node's screened gains (derived in
    :meth:`_TreeGrower._screen`); ``residual`` holds the node's
    residuals, ``base_sse`` their SSE about their float mean."""
    m = residual.size
    return _SLACK * (m + 2) * (
        base_sse + (m + 1) * _EPS * float((residual * residual).sum())
    )


def _best_split(
    residual: np.ndarray,
    columns: np.ndarray,
    rows: np.ndarray,
    features: List[int],
    thresholds: List[float],
    n_left: List[int],
    low: List[float],
    high: List[float],
    base_sse: float,
) -> Optional[Tuple[int, float]]:
    """The scalar split search of one node, screened and certified:
    ``(feature, threshold)``, or ``None`` for a leaf.

    ``residual`` holds the node's residuals in row order and
    ``columns[f, rows]`` its feature ``f``, what :func:`_exact_gain`
    reads; the lists are the node's candidates in (feature, threshold)
    order, ``low`` / ``high`` their screened gains minus / plus the
    node's slack.  The walk is the scalar one, with the best gain so far
    held as a bracket: a candidate is accepted when its screened gain
    minus the slack beats the bracket's top by ``1e-12``, rejected when
    plus the slack it does not beat the bracket's bottom, and otherwise
    scored exactly (with the incumbent, if that was only bracketed) and
    decided by the scalar comparison itself.  Every decision is the
    scalar one, so the split is too; a candidate on the incumbent's
    partition (same feature, same left count) scores exactly the same
    and is rejected outright.
    """

    def exact(i: int) -> float:
        return _exact_gain(
            residual, columns[features[i]][rows], thresholds[i], base_sse
        )

    best: Optional[int] = None
    lo_best = hi_best = best_gain = 0.0   # best_gain: exact, or None
    for i, (lo, hi) in enumerate(zip(low, high)):
        if best is not None and (
            features[i] == features[best] and n_left[i] == n_left[best]
        ):
            continue
        if lo > hi_best + 1e-12:
            best, lo_best, hi_best, best_gain = i, lo, hi, None
            continue
        if hi <= lo_best + 1e-12:
            continue
        if best_gain is None:
            best_gain = lo_best = hi_best = exact(best)
        gain = exact(i)
        if gain > best_gain + 1e-12:
            best, lo_best, hi_best, best_gain = i, gain, gain, gain
    if best is None:
        return None
    return features[best], thresholds[best]


class _Geometry(NamedTuple):
    """What a tree level's screen needs of its nodes' rows alone, the
    same for any residuals: every usable split candidate, node after
    node and each node's in (feature, threshold) order, and where the
    sums between consecutive cuts start in the level's layout."""

    features: np.ndarray
    thresholds: np.ndarray
    n_left: np.ndarray
    n_right: np.ndarray
    #: Each (node, feature) segment's sum starts, flat, in layout order.
    bounds: np.ndarray
    #: ``(nodes, features, cuts)``: which sums are empty.
    empty: np.ndarray
    #: ``(node, feature, rank)`` of each candidate.
    pick: Tuple[np.ndarray, np.ndarray, np.ndarray]


class _TreeGrower:
    """Grows depth-limited trees on one fit's feature matrix, a level at
    a time.

    Each feature column is sorted once, here.  A level's searched nodes
    are screened together (:meth:`_screen`) on one *layout*: flat
    indices ``f * n + p`` into the sorted columns, node after node and
    within a node feature after feature, each (node, feature) segment
    the node's rows in that feature's sort order (ascending ``p``).  A
    level's layout is its parents' kept to each child's rows, so it is
    sorted too.  What the screen needs of the rows alone
    (:class:`_Geometry`) is computed once for the root and kept for the
    last few levels under a root split.  Each node's mean, SSE, slack
    and certified walk are its own, so every split and leaf is the
    scalar rule's.

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
        # Where each sorted value's run of equal values ends, as a flat
        # index f * n + p.
        flat = self.sorted_columns.ravel()
        last = np.append(flat[1:] != flat[:-1], True)
        last[self.columns.shape[1] - 1 :: self.columns.shape[1]] = True
        ends = np.flatnonzero(last) + 1
        self.run_end = ends[np.searchsorted(ends, np.arange(flat.size), "right")]
        self.quantiles = np.linspace(0.0, 1.0, n_thresholds + 2)[1:-1]
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.n_splits = 2 ** max_depth - 1
        self._root: Optional[_Geometry] = None
        # (level, layout, geometry) under each recent root split.
        self._below_root: "OrderedDict[Tuple[int, float], tuple]" = (
            OrderedDict()
        )

    def grow(self, residual: np.ndarray):
        """One tree on ``residual``: ``(split_feature, split_threshold,
        leaf_value, fitted)``, ``fitted`` being each row's leaf value."""
        split_feature = np.zeros(self.n_splits, dtype=np.intp)
        split_threshold = np.full(self.n_splits, np.nan)
        leaf_value = np.empty(self.n_splits + 1)
        fitted = np.empty(residual.size)
        # The level's nodes, (heap slot, rows in row order), the searched
        # ones first and in the layout's order, and their geometry when
        # known; the root's layout is every column whole.
        level = [(0, np.arange(residual.size))]
        laid, geometry = None, self._root
        # The residuals in each feature's sort order, flat like a layout.
        residual_sorted = residual.take(self.order).ravel()
        for depth in range(self.max_depth + 1):
            nodes = [(slot, rows, residual[rows]) for slot, rows in level]
            means = [float(values.mean()) for _, _, values in nodes]
            searched = sum(self._searches(depth, rows) for _, rows in level)
            splits = [None] * len(nodes)
            if searched:
                if geometry is None:
                    geometry = self._level_geometry(depth, level, laid)
                    if not depth:
                        self._root = geometry
                splits[:searched] = self._search(
                    geometry,
                    residual_sorted.copy() if laid is None
                    else residual_sorted.take(laid),
                    nodes[:searched], means[:searched],
                )
            for (slot, rows, _), mean, split in zip(nodes, means, splits):
                if split is None:
                    fitted[rows] = mean
                    span = 2 ** (self.max_depth - depth)
                    first = (slot + 1) * span - 1 - self.n_splits
                    leaf_value[first : first + span] = mean
                else:
                    split_feature[slot], split_threshold[slot] = split
            if splits[:searched] == [None] * searched:
                break
            level, laid, geometry = self._next_level(depth, nodes, splits, laid)
        return split_feature, split_threshold, leaf_value, fitted

    def _next_level(self, depth, nodes, splits, laid):
        """``(level, layout, geometry or None)`` under ``nodes``
        (:meth:`_children`).  The level under the root depends on the
        root split alone, and boosting's trees often share one, so the
        last :data:`BELOW_ROOT_LEVELS` are kept, geometry and all."""
        if depth:
            return (*self._children(depth, nodes, splits, laid), None)
        below = self._below_root.pop(splits[0], None)
        if below is None:
            level, laid = self._children(depth, nodes, splits, laid)
            below = level, laid, self._level_geometry(1, level, laid)
        self._below_root[splits[0]] = below
        if len(self._below_root) > BELOW_ROOT_LEVELS:
            self._below_root.popitem(last=False)
        return below

    def _searches(self, depth: int, rows: np.ndarray) -> bool:
        return depth < self.max_depth and rows.size >= 2 * self.min_leaf

    def _children(self, depth, nodes, splits, laid):
        """The next level's nodes, searched left children first, then
        searched right ones, then the rest, and the searched ones'
        layout: ``laid`` (None: the root's, every column whole) kept to
        their rows, so each child's segments are its parent's,
        filtered."""
        lefts, rights, rest = [], [], []
        side = np.full(self.columns.shape[1], 2, dtype=np.uint8)
        for (slot, rows, _), split in zip(nodes, splits):
            if split is None:
                continue
            feature, threshold = split
            goes_left = self.columns[feature, rows] <= threshold
            for code, child, kept in (
                (0, (2 * slot + 1, rows[goes_left]), lefts),
                (1, (2 * slot + 2, rows[~goes_left]), rights),
            ):
                if self._searches(depth + 1, child[1]):
                    side[child[1]] = code
                    kept.append(child)
                else:
                    rest.append(child)
        if lefts or rights:
            side = side.take(self.order if laid is None else self.order.take(laid))
            laid = np.concatenate([
                np.flatnonzero(side == code) if laid is None
                else laid[side == code]
                for code in (0, 1)
            ])
        return lefts + rights + rest, laid

    def _level_geometry(self, depth, level, laid) -> Optional[_Geometry]:
        """The :meth:`_geometry` of ``level``'s searched nodes, if any,
        laid out as ``laid`` (None: the root's layout)."""
        sizes = [rows.size for _, rows in level if self._searches(depth, rows)]
        if not sizes:
            return None
        return self._geometry(
            np.arange(self.order.size) if laid is None else laid,
            np.array(sizes),
        )

    def _search(self, geometry, centred, nodes, means):
        """The certified split (or ``None``) of each of a level's
        searched ``nodes``, ``(slot, rows, residuals)`` with their
        ``means``; ``centred`` holds the residuals in the level's layout
        and is centred here, block by block."""
        sse = []
        end = 0
        for (_, rows, values), mean in zip(nodes, means):
            start, end = end, end + rows.size * self.columns.shape[0]
            centred[start:end] -= mean
            sse.append(float(((values - mean) ** 2).sum()))
        screen = self._screen(geometry, centred)
        found = geometry.pick[0]
        slack = np.array([
            _slack(values, base_sse)
            for (_, _, values), base_sse in zip(nodes, sse)
        ])[found]
        low, high = (screen - slack).tolist(), (screen + slack).tolist()
        features = geometry.features.tolist()
        thresholds = geometry.thresholds.tolist()
        n_left = geometry.n_left.tolist()
        ends = np.searchsorted(found, np.arange(len(nodes) + 1)).tolist()
        return [
            _best_split(
                values, self.columns, rows, features[a:b], thresholds[a:b],
                n_left[a:b], low[a:b], high[a:b], base_sse,
            )
            for (_, rows, values), base_sse, a, b in zip(
                nodes, sse, ends, ends[1:]
            )
        ]

    def _geometry(self, laid: np.ndarray, sizes: np.ndarray) -> _Geometry:
        """The :class:`_Geometry` of the nodes of ``sizes`` rows laid out
        as ``laid``."""
        n_features, n = self.columns.shape
        width = sizes * n_features
        ends = np.cumsum(width)
        # (node, feature): where each segment starts.
        base = (ends - width)[:, None] + sizes[:, None] * np.arange(n_features)
        lo, hi, gamma = _quantile_points(sizes, self.quantiles)
        at_lo = laid[base[..., None] + lo[:, None]]
        at_hi = laid[base[..., None] + hi[:, None]]
        values = self.sorted_columns.ravel()
        a, b = values[at_lo], values[at_hi]
        cuts = _lerp(a, b, gamma[:, None])
        # The lerp keeps a <= cut <= b, and the node holds no value
        # between a and b, so its rows at or below the cut are those at
        # or below a, or b when the cut is b: the first of its segment
        # below that value's run end in the feature's order.  Only a
        # b - a past the float range breaks the lerp's bracket; such a
        # cut's bound is the count of the column at or below it.
        bound = np.where(cuts < b, self.run_end[at_lo], self.run_end[at_hi])
        odd = ~((a <= cuts) & (cuts <= b))
        for j, f, k in zip(*np.nonzero(odd)):
            bound[j, f, k] = f * n + self.sorted_columns[f].searchsorted(
                cuts[j, f, k], "right"
            )
        # np.unique per segment's cuts = sort + drop repeats; the bound
        # is a nondecreasing function of the cut, so it sorts alike.
        bound.sort(axis=-1)
        cuts.sort(axis=-1)
        fresh = np.ones(cuts.shape, dtype=bool)
        fresh[..., 1:] = cuts[..., 1:] != cuts[..., :-1]
        n_left = np.empty_like(bound)
        for j, (start, end) in enumerate(zip(ends - width, ends)):
            n_left[j] = laid[start:end].searchsorted(bound[j])
        n_left -= (sizes[:, None] * np.arange(n_features))[..., None]
        pick = np.nonzero(
            fresh & (n_left >= self.min_leaf)
            & (sizes[:, None, None] - n_left >= self.min_leaf)
        )
        n_l = n_left[pick]
        # Sums between consecutive cuts start at each segment's start
        # and then at each cut's left count.  A cut with every row of
        # its node on its left (never usable) starts its sum at the
        # segment's last row instead, so no sum reaches into the next
        # segment; a repeated cut's sum is empty.
        bounds = np.zeros(cuts.shape[:2] + (cuts.shape[2] + 1,), dtype=np.intp)
        np.minimum(n_left, (sizes - 1)[:, None, None], out=bounds[..., 1:])
        bounds += base[..., None]
        return _Geometry(
            features=pick[1],
            thresholds=cuts[pick],
            n_left=n_l,
            n_right=sizes[pick[0]] - n_l,
            bounds=bounds.ravel(),
            empty=bounds[..., 1:] == bounds[..., :-1],
            pick=pick,
        )

    @staticmethod
    def _screen(geometry: _Geometry, centred: np.ndarray) -> np.ndarray:
        """Every candidate's approximate gain, from ``centred``: each
        node's centred residuals ``fl(r - mean)`` in the level's layout.

        *Screen.*  For a node of ``m`` rows, with ``S_L``, ``S_R`` the
        sums of ``centred`` left and right of a threshold (sums between
        consecutive thresholds, accumulated from either end of the
        segment), the gain is ``G + S^2/m = S_L^2/n_L + S_R^2/n_R`` in
        exact arithmetic, where ``G`` is the real SSE reduction and
        ``S = S_L + S_R``.

        *Bound.*  Let ``u = eps / 2``, ``Q`` the node's SSE about its
        float mean and ``R`` its sum of squared residuals.  Any float
        summation of ``n`` terms, in any order, is within
        ``n u sum |x|`` of the real sum, and ``sum |c| <= sqrt(n Q)``.
        So each screened square is within ``2 (n + 1) u Q_side`` of the
        real one, the roundings of the screen's own squares, divisions
        and addition add ``3 u Q``: the screen is within
        ``(2m + 5) u Q`` of ``G + S^2/m``.  The scalar rule's three SSEs
        are within ``(m + 3) u Q`` (node) and ``(n + 3) u Q_side``
        (children) of the real ones about their float means; the node
        term is ``G``'s ``SSE + S^2/m`` (the same ``S^2/m`` as the
        screen's, so it cancels) and each child's adds ``(side sum)^2 /
        n <= n^2 u^2 R_side``; its two subtractions add ``4 u Q``.  In
        total the two gains differ by at most ``(4m + 17) u Q + m^2 u^2
        R``; :func:`_slack`, ``_SLACK (m + 2) (Q + (m + 1) eps R)``, is
        at least twice that, which also covers evaluating it and
        ``screen +- slack`` in floats.  The bound holds because every
        sum runs over one node's terms only: each is taken within its
        segment, never as the difference of sums that run across nodes.
        """
        sums = np.add.reduceat(centred, geometry.bounds).reshape(
            geometry.empty.shape[:2] + (-1,)
        )
        sums[..., :-1][geometry.empty] = 0.0
        s_l = np.cumsum(sums, axis=-1)[geometry.pick]
        s_r = np.cumsum(sums[..., ::-1], axis=-1)[..., -2::-1][geometry.pick]
        return s_l * s_l / geometry.n_left + s_r * s_r / geometry.n_right


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
