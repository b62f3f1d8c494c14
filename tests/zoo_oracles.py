"""Scalar oracles for the zoo's vectorised SPAR, GBT and mSSA kernels.

``repro.prediction.gbt`` fits and forecasts with numpy kernels (a
screened split search, flattened trees, one sequential ``cumsum`` per
forecast step).  The per-candidate and per-tree Python code it replaced
lives here, unchanged but for one thing: the forecast sums with an
explicit left-to-right loop instead of ``sum()``.  The two are the same
operation on Python 3.9-3.11, but from 3.12 on ``sum()`` of Python
floats is compensated (Neumaier), so the loop is what pins the oracle to
one rounding on every interpreter.

``MssaPredictor`` forecasts with one ``np.vecdot`` of the weights with
the window per step, so ``mssa_forecast`` takes one ``weights @ window``
dot per step, the same BLAS dot; ``mssa_forecast_sequential`` is the
per-lag left-to-right sum it replaced, which its forecasts match to
rounding.  ``MssaPredictor`` fits at rank ``r`` (eigenvectors of the
window Gram matrix, built from lagged products, and convolved
anti-diagonal sums); ``mssa_fit`` is the full-SVD fit it replaced, under
the same relative ridge, which its forecasts must match to 1e-9 of the
peak rather than bitwise: the two factorisations round differently.

``repro.prediction.spar`` fits every forecast offset ``tau`` in one
stacked solve and forecasts with gathers; the per-``tau`` design matrix,
fit and Eq. 8 loop it replaced are here too.  Their ``sum()`` calls add
numpy scalars, not Python floats, so no interpreter compensates them.

The other five models forecast one origin per call with the bodies
below (``ar_forecast`` … ``oracle_forecast``); each model's batched
``_forecasts`` kernel must reproduce them row for row.  AR and ARMA
keep ``sum()`` over numpy scalars, which no interpreter compensates
either.

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


def zoo_scale_trace(seed: int = 1):
    """The steady B2W-like trace, training and evaluation days."""
    return b2w_like_trace(
        n_days=ZOO_TRAIN_DAYS + ZOO_EVAL_DAYS,
        slot_seconds=ZOO_SLOT_SECONDS,
        seed=seed,
        base_level=1450.0 * ZOO_SLOT_SECONDS,
        drift_sigma=0.0,
        wobble_sigma=0.0,
        noise_sigma=0.01,
    )


def zoo_scale_series(seed: int = 1) -> Tuple[np.ndarray, np.ndarray]:
    """``(train, evaluation)`` rates of :func:`zoo_scale_trace`."""
    trace = zoo_scale_trace(seed)
    return (
        trace.slice_days(0, ZOO_TRAIN_DAYS).as_rate_per_second(),
        trace.slice_days(ZOO_TRAIN_DAYS, ZOO_EVAL_DAYS).as_rate_per_second(),
    )


def long_zoo_series() -> np.ndarray:
    """42,000 slots (~146 days at 5-minute slots): the zoo-scale
    training days repeated, with 1 % noise so no two days are equal."""
    train = zoo_scale_series()[0]
    noise = np.random.default_rng(7).standard_normal(42_000)
    return np.tile(train, 11)[:42_000] * (1 + 0.01 * noise)


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


def mssa_fit(model, arr: np.ndarray) -> np.ndarray:
    """``MssaPredictor._fit`` by the full SVD of the page matrix: the
    rank-r reconstruction built whole and hankelized a column at a
    time, then the recurrence under the same relative ridge.  Returns
    the coefficients ``[c_0, c_1 .. c_{L-1}]``."""
    length, lags = arr.size, model.window
    page = np.lib.stride_tricks.sliding_window_view(arr, lags)
    u, s, vt = np.linalg.svd(page, full_matrices=False)
    r = min(model.rank, s.size)
    low = (u[:, :r] * s[:r]) @ vt[:r]
    sums = np.zeros(length)
    counts = np.zeros(length)
    rows = page.shape[0]
    for col in range(lags):
        sums[col : col + rows] += low[:, col]
        counts[col : col + rows] += 1.0
    denoised = sums / counts
    lagged = np.lib.stride_tricks.sliding_window_view(denoised, lags)
    design = np.concatenate(
        [np.ones((lagged.shape[0], 1)), lagged[:, -2::-1]], axis=1
    )
    targets = lagged[:, -1]
    gram = design.T @ design
    gram = gram + model.ridge * np.trace(gram) / lags * np.eye(lags)
    return solve_ridge(gram, design.T @ targets)


def mssa_forecast(coeffs: np.ndarray, arr: np.ndarray, horizon: int) -> np.ndarray:
    """The linear recurrence, one ``weights @ window`` dot per step over
    the newest-first window (contiguous, so the dot is BLAS's, as
    ``np.vecdot`` takes it in the kernel)."""
    intercept = coeffs[0]
    weights = coeffs[1:]
    n_lags = weights.size
    window = np.ascontiguousarray(arr[: -n_lags - 1 : -1])
    out = np.empty(horizon)
    for step in range(horizon):
        value = max(float(intercept + weights @ window), 0.0)
        out[step] = value
        window = np.concatenate(([value], window[:-1]))
    return np.clip(out, 0.0, None)


def mssa_forecast_sequential(
    coeffs: np.ndarray, arr: np.ndarray, horizon: int
) -> np.ndarray:
    """The linear recurrence, one Python multiply-add per lag, left to
    right: the kernel's rounding until it took one dot per step."""
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


# ----------------------------------------------------------------------
# One origin per call: AR, ARMA, the naive floors and the oracle
# ----------------------------------------------------------------------


def ar_forecast(model, arr: np.ndarray, horizon: int) -> np.ndarray:
    """AR(p)'s recursion over a Python window list."""
    coeffs = model.coefficients
    intercept = coeffs[0]
    phi = coeffs[1:]
    window = list(arr[-model.order:])
    out = np.empty(horizon)
    for step in range(horizon):
        value = intercept + sum(
            phi[i] * window[-1 - i] for i in range(model.order)
        )
        out[step] = value
        window.append(value)
        window.pop(0)
    return np.clip(out, 0.0, None)


def arma_innovations(model, arr: np.ndarray) -> np.ndarray:
    """One-step residuals of the long AR, zero-padded at the front."""
    order = model.long_ar_order
    coeffs = model._long_ar
    innovations = np.zeros(arr.size)
    if arr.size <= order:
        return innovations
    anchors = np.arange(order, arr.size)
    fitted = np.full(anchors.size, coeffs[0])
    for lag in range(1, order + 1):
        fitted += coeffs[lag] * arr[anchors - lag]
    innovations[order:] = arr[anchors] - fitted
    return innovations


def arma_forecast(model, arr: np.ndarray, horizon: int) -> np.ndarray:
    """ARMA(p, q)'s recursion, future innovations set to zero."""
    q = model.q
    innovations = list(arma_innovations(model, arr)[-max(q, 1):]) if q else []
    values = list(arr[-model.p:])
    out = np.empty(horizon)
    for step in range(horizon):
        forecast = model._intercept + sum(
            model._phi[i] * values[-1 - i] for i in range(model.p)
        )
        for j in range(q):
            if j < len(innovations):
                forecast += model._theta[j] * innovations[-1 - j]
        out[step] = forecast
        values.append(forecast)
        values.pop(0)
        if q:
            innovations.append(0.0)  # future innovations have mean zero
            innovations.pop(0)
    return np.clip(out, 0.0, None)


def seasonal_forecast(model, arr: np.ndarray, horizon: int) -> np.ndarray:
    """The slots one period before the forecast ones."""
    start = arr.size - model.period
    return np.clip(arr[start : start + horizon], 0.0, None)


def naive_forecast(model, arr: np.ndarray, horizon: int) -> np.ndarray:
    """The last observation, held flat."""
    return np.clip(np.full(horizon, arr[-1]), 0.0, None)


def oracle_forecast(model, arr: np.ndarray, horizon: int) -> np.ndarray:
    """The next true values after the history, checked against the truth
    over its last three slots and padded with the last true value."""
    truth = model._truth
    now = arr.size - 1
    if now >= truth.size:
        raise PredictionError(
            f"history of {arr.size} slots is longer than the truth "
            f"({truth.size} slots)"
        )
    if not np.allclose(arr[-3:], truth[max(0, now - 2) : now + 1]):
        raise PredictionError(
            "history does not match the oracle's ground-truth series"
        )
    future = truth[now + 1 : min(now + 1 + horizon, truth.size)]
    if future.size < horizon:
        pad = np.full(horizon - future.size, truth[-1])
        future = np.concatenate([future, pad])
    return np.clip(future, 0.0, None)


def forecast_one(
    model, arr: np.ndarray, horizon: int, gbt_model=None
) -> np.ndarray:
    """The per-origin oracle of any zoo model: its forecast from the
    whole of ``arr``.  For GBT, ``gbt_model`` is ``gbt_fit``'s
    ``(base, trees)`` for it (the scalar fit is slow; fit once)."""
    name = model.name
    if name == "spar":
        return spar_forecast(model, arr, horizon)
    if name == "mssa":
        return mssa_forecast(model._coeffs, arr, horizon)
    if name == "gbt":
        base, trees = gbt_model or gbt_fit(model, model._fit_series)
        return gbt_forecast(model, base, trees, arr, horizon)
    return {
        "ar": ar_forecast,
        "arma": arma_forecast,
        "seasonal": seasonal_forecast,
        "naive": naive_forecast,
        "oracle": oracle_forecast,
    }[name](model, arr, horizon)
