"""mSSA-style matrix-factorization predictor (the tspDB lineage).

Multivariate singular spectrum analysis treats a time series as a noisy
observation of a low-rank latent process: stack the series into a Page/
Hankel matrix, truncate its SVD to rank ``r`` to denoise, and learn a
linear recurrence on the denoised signal.  tspDB ships exactly this
model inside a database; here it is the zoo's matrix-factorization
contender against SPAR.

The implementation is the classic recurrent-SSA forecast:

1. build the ``(N - L + 1) x L`` sliding-window (Hankel) matrix of the
   training series;
2. keep the top ``rank`` singular triplets and hankelize (anti-diagonal
   average) the low-rank reconstruction back into a denoised series;
3. fit, by ridge least squares, a linear recurrence
   ``y(t) = c_0 + sum_{j=1..L-1} c_j * y(t - j)`` on the denoised
   series;
4. forecast recursively with the recurrence over the *observed* history
   tail.

Step 2 is paid at rank ``r``, not for a full SVD: the top-``r`` right
singular vectors are the top-``r`` eigenvectors of the ``L x L`` window
Gram matrix, and the reconstruction's anti-diagonal sums are ``r``
convolutions of each component's scores with its singular vector, so
neither ``U`` nor the ``(N - L + 1) x L`` reconstruction is built.  The
denoised series spans only about ``r`` of its ``L`` lags, so step 3's
ridge is relative — ``ridge`` times the lag Gram's mean diagonal — or
the solve would pick coefficients out of rounding noise (and the two
factorisations, or two BLAS thread counts, would forecast differently).

With the default window ``L = period + 1`` the recurrence spans one full
season, so the model captures periodic structure without hardcoding a
fixed-phase periodic term the way SPAR does — which is exactly what lets
it track drifting periodicity.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import PredictionError
from .base import Predictor, solve_ridge


class MssaPredictor(Predictor):
    """Low-rank (SSA / matrix-factorization) load predictor.

    Parameters
    ----------
    period:
        slots per season; only used to pick the default ``window``.
    window:
        Hankel window length ``L`` (defaults to ``period + 1`` so the
        recurrence sees one full season of lags).
    rank:
        singular values kept in the low-rank reconstruction.
    ridge:
        L2 regularisation of the recurrence fit, relative to the mean
        diagonal of its Gram matrix.
    """

    name = "mssa"

    def __init__(
        self,
        period: int,
        window: Optional[int] = None,
        rank: int = 8,
        ridge: float = 1e-4,
    ):
        super().__init__()
        if period < 2:
            raise PredictionError(f"period must be >= 2 slots (got {period})")
        if rank < 1:
            raise PredictionError(f"rank must be >= 1 (got {rank})")
        if ridge < 0:
            raise PredictionError(f"ridge must be >= 0 (got {ridge})")
        self.period = period
        self.window = int(window) if window is not None else period + 1
        if self.window < 3:
            raise PredictionError(
                f"window must be >= 3 slots (got {self.window})"
            )
        # The recurrence consumes ``L - 1`` trailing observations.
        self.min_history = self.window - 1
        self.min_fit = 2 * self.window
        self.rank = rank
        self.ridge = ridge
        self._coeffs: Optional[np.ndarray] = None  # [c_0, c_1 .. c_{L-1}]

    def _fit(self, arr: np.ndarray) -> None:
        lags = self.window
        # 1. Page/Hankel matrix of overlapping windows.
        page = np.lib.stride_tricks.sliding_window_view(arr, lags)
        rows = page.shape[0]
        # 2. Rank-r denoising: the top-r right singular vectors of the
        # page are the top-r eigenvectors of its L x L window Gram
        # (eigh sorts ascending).  The reconstruction is
        # ``scores @ basis.T``; its anti-diagonal sums are one
        # convolution per kept component, so it is never built.
        r = min(self.rank, lags)
        basis = np.linalg.eigh(page.T @ page)[1][:, : -r - 1 : -1]
        scores = page @ basis
        sums = sum(np.convolve(scores[:, i], basis[:, i]) for i in range(r))
        denoised = sums / np.convolve(np.ones(rows), np.ones(lags))
        # 3. Ridge-fit the linear recurrence on the denoised series.
        lagged = np.lib.stride_tricks.sliding_window_view(denoised, lags)
        design = np.concatenate(
            # newest lag first: column j holds y(t - (j+1))
            [np.ones((lagged.shape[0], 1)), lagged[:, -2::-1]],
            axis=1,
        )
        targets = lagged[:, -1]
        gram = design.T @ design
        # The ridge is relative to the mean diagonal (module docstring).
        gram[np.diag_indices(lags)] += self.ridge * np.trace(gram) / lags
        self._coeffs = solve_ridge(gram, design.T @ targets)

    def _forecasts(
        self, arr: np.ndarray, origins: np.ndarray, horizon: int
    ) -> np.ndarray:
        assert self._coeffs is not None
        intercept = self._coeffs[0]
        weights = self._coeffs[1:]
        n_lags = weights.size
        # Per origin, newest first: the observed tail from column
        # ``horizon`` on, and each step's forecast written just before
        # the window it was made from, so step ``s`` reads the window
        # starting at ``horizon - s``.
        buffer = np.empty((origins.size, horizon + n_lags))
        buffer[:, horizon:] = arr[origins[:, None] - np.arange(n_lags)]
        # terms[:, 1 + j] = weights[j] * y(t - 1 - j); terms[:, 0] = 0.0
        # starts the sum, which one sequential cumsum per row adds left
        # to right.
        terms = np.zeros((origins.size, n_lags + 1))
        partial = np.empty_like(terms)
        for at in range(horizon - 1, -1, -1):
            np.multiply(weights, buffer[:, at + 1 : at + 1 + n_lags],
                        out=terms[:, 1:])
            value = intercept + terms.cumsum(axis=1, out=partial)[:, -1]
            # Clip inside the recursion: load is non-negative and an
            # unstable recurrence must not feed back growing negatives.
            # (A -0.0 becomes 0.0 here, where max(value, 0.0) kept it;
            # no sum tells the two apart and the final clip makes the
            # output 0.0 either way.)
            np.maximum(value, 0.0, out=buffer[:, at])
        return buffer[:, horizon - 1 :: -1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MssaPredictor(window={self.window}, rank={self.rank}, "
            f"fitted={self._fitted})"
        )
