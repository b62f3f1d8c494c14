"""Scalar oracles for the zoo's vectorised SPAR, GBT and mSSA kernels.

``repro.prediction.gbt`` and ``repro.prediction.mssa`` fit and forecast
with numpy kernels (a screened split search, flattened trees, one
sequential ``cumsum`` per forecast step).  The per-candidate and per-lag
Python code they replaced lives here, unchanged but for one thing: the
forecast recurrences sum with an explicit left-to-right loop instead of
``sum()``.  The two are the same operation on Python 3.9-3.11, but from
3.12 on ``sum()`` of Python floats is compensated (Neumaier), so the loop
is what pins the oracle to one rounding on every interpreter.

``repro.prediction.spar`` fits every forecast offset ``tau`` in one
stacked solve and forecasts with gathers; the per-``tau`` design matrix,
fit and Eq. 8 loop it replaced are here too.  Their ``sum()`` calls add
numpy scalars, not Python floats, so no interpreter compensates them.

``zoo_scale_series`` is the trace perfbench's ``capacity_zoo`` workload
fits on: 14 steady training days and 2 evaluation days at 5-minute
slots (period 288).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PredictionError
from repro.prediction.base import solve_ridge
from repro.workload import b2w_like_trace

#: capacity_zoo's scale: 5-minute slots, 14 + 2 days, peak ~1450 txn/s.
ZOO_PERIOD = 288
ZOO_SLOT_SECONDS = 300.0
ZOO_TRAIN_DAYS = 14
ZOO_EVAL_DAYS = 2
#: PredictiveController.minimum_horizon_intervals at 5-minute slots.
ZOO_HORIZON = 7


def zoo_scale_series(seed: int = 1) -> Tuple[np.ndarray, np.ndarray]:
    """``(train, evaluation)`` rates of a steady B2W-like trace."""
    trace = b2w_like_trace(
        n_days=ZOO_TRAIN_DAYS + ZOO_EVAL_DAYS,
        slot_seconds=ZOO_SLOT_SECONDS,
        seed=seed,
        base_level=1450.0 * ZOO_SLOT_SECONDS,
        drift_sigma=0.0,
        wobble_sigma=0.0,
        noise_sigma=0.01,
    )
    return (
        trace.slice_days(0, ZOO_TRAIN_DAYS).as_rate_per_second(),
        trace.slice_days(ZOO_TRAIN_DAYS, ZOO_EVAL_DAYS).as_rate_per_second(),
    )


# ----------------------------------------------------------------------
# Gradient-boosted trees
# ----------------------------------------------------------------------

#: Tree nodes are tuples: ("leaf", value) or
#: ("split", feature, threshold, left, right).
Node = tuple


def fit_tree(
    features: np.ndarray,
    residual: np.ndarray,
    depth: int,
    max_depth: int,
    n_thresholds: int,
    min_leaf: int,
) -> Node:
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
        fit_tree(
            features[mask], residual[mask],
            depth + 1, max_depth, n_thresholds, min_leaf,
        ),
        fit_tree(
            features[~mask], residual[~mask],
            depth + 1, max_depth, n_thresholds, min_leaf,
        ),
    )


def tree_apply(node: Node, features: np.ndarray) -> np.ndarray:
    """Vectorised prediction of one tree over a feature matrix."""
    if node[0] == "leaf":
        return np.full(features.shape[0], node[1])
    _, feature, threshold, left, right = node
    out = np.empty(features.shape[0])
    mask = features[:, feature] <= threshold
    out[mask] = tree_apply(left, features[mask])
    out[~mask] = tree_apply(right, features[~mask])
    return out


def tree_apply_one(node: Node, row: Sequence[float]) -> float:
    while node[0] == "split":
        _, feature, threshold, left, right = node
        node = left if row[feature] <= threshold else right
    return node[1]


def tree_nodes(node: Node) -> List[tuple]:
    """Pre-order ``("split", feature, threshold)`` / ``("leaf", value)``
    rows, the shape a tree is compared in."""
    if node[0] == "leaf":
        return [("leaf", node[1])]
    _, feature, threshold, left, right = node
    return [("split", feature, threshold)] + tree_nodes(left) + tree_nodes(right)


def gbt_fit(model, arr: np.ndarray) -> Tuple[float, List[Node]]:
    """``GbtPredictor._fit`` with the scalar tree search: ``(base, trees)``."""
    anchors = np.arange(model.min_history, arr.size)
    features = model._features(arr, anchors)
    targets = arr[anchors]
    base = float(targets.mean())
    prediction = np.full(targets.size, base)
    trees = []
    for _ in range(model.n_trees):
        tree = fit_tree(
            features, targets - prediction,
            0, model.max_depth, model.n_thresholds, model.min_leaf,
        )
        prediction = prediction + model.learning_rate * tree_apply(
            tree, features
        )
        trees.append(tree)
    return base, trees


def gbt_forecast(
    model, base: float, trees: List[Node], arr: np.ndarray, horizon: int
) -> np.ndarray:
    """The recursive forecast, one tree walk per tree per step."""
    buffer = list(arr[-model.min_history:])
    out = np.empty(horizon)
    for step in range(horizon):
        slot = arr.size + step
        row = [buffer[-lag] for lag in model.lags]
        phase = 2.0 * math.pi * (slot % model.period) / model.period
        row += [math.sin(phase), math.cos(phase),
                math.sin(2 * phase), math.cos(2 * phase)]
        total = 0
        for tree in trees:
            total = total + tree_apply_one(tree, row)
        value = max(float(base + model.learning_rate * total), 0.0)
        out[step] = value
        buffer.append(value)
        buffer.pop(0)
    return np.clip(out, 0.0, None)


# ----------------------------------------------------------------------
# mSSA
# ----------------------------------------------------------------------


def mssa_forecast(coeffs: np.ndarray, arr: np.ndarray, horizon: int) -> np.ndarray:
    """The linear recurrence, one Python multiply-add per lag."""
    intercept = coeffs[0]
    weights = coeffs[1:]
    n_lags = weights.size
    buffer = list(arr[-n_lags:])
    out = np.empty(horizon)
    for step in range(horizon):
        total = 0
        for j in range(n_lags):
            total = total + weights[j] * buffer[-1 - j]
        value = max(float(intercept + total), 0.0)
        out[step] = value
        buffer.append(value)
        buffer.pop(0)
    return np.clip(out, 0.0, None)


# ----------------------------------------------------------------------
# SPAR (Eq. 8)
# ----------------------------------------------------------------------


def spar_design(model, series: np.ndarray, tau: int) -> Tuple[np.ndarray, np.ndarray]:
    """Build the regression design matrix for a fixed ``tau``.

    Rows are anchored at "now" indices ``t``; the target is
    ``series[t + tau]``.  Columns are the ``n`` periodic lags followed
    by the ``m`` recent offsets.
    """
    t_len = series.size
    n, m, period = model.n_periods, model.m_recent, model.period
    # y(t + tau - k*T) must exist (index >= 0) and the offsets need
    # y(t - j - k*T) >= 0; targets need t + tau < len.
    t_min = max(n * period - tau, m + n * period)
    t_max = t_len - tau - 1
    if t_max < t_min:
        raise PredictionError(f"not enough training data for tau={tau}")
    anchors = np.arange(t_min, t_max + 1)
    periodic = series[anchors[:, None] + tau - np.arange(1, n + 1) * period]
    design = np.concatenate(
        [periodic, model._offset_block(series, anchors)], axis=1
    )
    targets = series[anchors + tau]
    return design, targets


def spar_fit_tau(model, tau: int) -> Tuple[np.ndarray, np.ndarray]:
    """Fit the coefficients ``(a, b)`` for forecast offset ``tau`` alone
    (nothing is cached on ``model``)."""
    design, targets = spar_design(model, model._fit_series, tau)
    n_cols = design.shape[1]
    # Ridge-regularised normal equations: (X'X + rI) w = X'y.
    gram = design.T @ design + model.ridge * np.eye(n_cols)
    rhs = design.T @ targets
    weights = solve_ridge(gram, rhs)
    return weights[: model.n_periods], weights[model.n_periods :]


def spar_forecast(model, history: Sequence[float], horizon: int) -> np.ndarray:
    """Scalar-loop transcription of Eq. 8 over per-``tau`` fits."""
    arr = np.asarray(history, dtype=float)
    t = arr.size - 1
    n, m, period = model.n_periods, model.m_recent, model.period
    offsets = np.empty(m)
    for j in range(1, m + 1):
        mean = sum(arr[t - j - k * period] for k in range(1, n + 1)) / n
        offsets[j - 1] = arr[t - j] - mean
    out = np.empty(horizon)
    for tau in range(1, horizon + 1):
        a, b = spar_fit_tau(model, tau)
        periodic = sum(
            a[k - 1] * arr[t + tau - k * period] for k in range(1, n + 1)
        )
        out[tau - 1] = periodic + float(b @ offsets) if m else periodic
    return np.clip(out, 0.0, None)
