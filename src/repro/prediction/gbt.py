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

Multi-step forecasts are recursive: each predicted slot is appended to
the lag buffer before predicting the next.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import PredictionError
from .base import Predictor

#: Tree nodes are tuples: ("leaf", value) or
#: ("split", feature, threshold, left, right).
_Node = tuple


def _fit_tree(
    features: np.ndarray,
    residual: np.ndarray,
    depth: int,
    max_depth: int,
    n_thresholds: int,
    min_leaf: int,
) -> _Node:
    """Greedy SSE-minimising regression tree on the residuals."""
    mean = float(residual.mean())
    if depth >= max_depth or residual.size < 2 * min_leaf:
        return ("leaf", mean)
    base_sse = float(((residual - mean) ** 2).sum())
    best_gain = 0.0
    best: Optional[Tuple[int, float]] = None
    quantiles = np.linspace(0.0, 1.0, n_thresholds + 2)[1:-1]
    for feature in range(features.shape[1]):
        column = features[:, feature]
        thresholds = np.unique(np.quantile(column, quantiles))
        for threshold in thresholds:
            mask = column <= threshold
            n_left = int(mask.sum())
            if n_left < min_leaf or residual.size - n_left < min_leaf:
                continue
            left = residual[mask]
            right = residual[~mask]
            sse = (
                float(((left - left.mean()) ** 2).sum())
                + float(((right - right.mean()) ** 2).sum())
            )
            gain = base_sse - sse
            # Strict inequality keeps the first (feature, threshold) on
            # ties, so the greedy choice is deterministic.
            if gain > best_gain + 1e-12:
                best_gain = gain
                best = (feature, float(threshold))
    if best is None:
        return ("leaf", mean)
    feature, threshold = best
    mask = features[:, feature] <= threshold
    return (
        "split",
        feature,
        threshold,
        _fit_tree(
            features[mask], residual[mask],
            depth + 1, max_depth, n_thresholds, min_leaf,
        ),
        _fit_tree(
            features[~mask], residual[~mask],
            depth + 1, max_depth, n_thresholds, min_leaf,
        ),
    )


def _tree_apply(node: _Node, features: np.ndarray) -> np.ndarray:
    """Vectorised prediction of one tree over a feature matrix."""
    if node[0] == "leaf":
        return np.full(features.shape[0], node[1])
    _, feature, threshold, left, right = node
    out = np.empty(features.shape[0])
    mask = features[:, feature] <= threshold
    out[mask] = _tree_apply(left, features[mask])
    out[~mask] = _tree_apply(right, features[~mask])
    return out


def _tree_apply_one(node: _Node, row: Sequence[float]) -> float:
    while node[0] == "split":
        _, feature, threshold, left, right = node
        node = left if row[feature] <= threshold else right
    return node[1]


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
        self._trees: List[_Node] = []

    def _features(self, values: np.ndarray, anchors: np.ndarray) -> np.ndarray:
        """Feature rows predicting ``values[anchor]`` from its past."""
        columns = [values[anchors - lag] for lag in self.lags]
        phase = 2.0 * math.pi * (anchors % self.period) / self.period
        columns += [np.sin(phase), np.cos(phase),
                    np.sin(2 * phase), np.cos(2 * phase)]
        return np.column_stack(columns)

    def _feature_row(self, buffer: List[float], slot: int) -> List[float]:
        """One feature row from a lag buffer (newest last) at ``slot``."""
        row = [buffer[-lag] for lag in self.lags]
        phase = 2.0 * math.pi * (slot % self.period) / self.period
        row += [math.sin(phase), math.cos(phase),
                math.sin(2 * phase), math.cos(2 * phase)]
        return row

    def _fit(self, arr: np.ndarray) -> None:
        max_lag = self.min_history
        anchors = np.arange(max_lag, arr.size)
        features = self._features(arr, anchors)
        targets = arr[anchors]
        self._base = float(targets.mean())
        prediction = np.full(targets.size, self._base)
        self._trees = []
        for _ in range(self.n_trees):
            tree = _fit_tree(
                features, targets - prediction,
                0, self.max_depth, self.n_thresholds, self.min_leaf,
            )
            prediction = prediction + self.learning_rate * _tree_apply(
                tree, features
            )
            self._trees.append(tree)

    def _forecast(self, arr: np.ndarray, horizon: int) -> np.ndarray:
        buffer = list(arr[-self.min_history :])
        out = np.empty(horizon)
        for step in range(horizon):
            row = self._feature_row(buffer, arr.size + step)
            value = self._base + self.learning_rate * sum(
                _tree_apply_one(tree, row) for tree in self._trees
            )
            # Clipped before it is fed back as a lag.
            value = max(float(value), 0.0)
            out[step] = value
            buffer.append(value)
            buffer.pop(0)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GbtPredictor(period={self.period}, trees={self.n_trees}, "
            f"fitted={self._fitted})"
        )
