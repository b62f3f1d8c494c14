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
Gram matrix.  Nothing Hankel is multiplied out: the Gram follows from
one row of lagged dot products and a diagonal update
(:func:`_hankel_gram`), component ``i``'s scores are the series
correlated with its singular vector, and the reconstruction's
anti-diagonal sums are those scores convolved with it, so neither ``U``
nor the ``(N - L + 1) x L`` reconstruction is built.  Step 3's design
rows are the denoised series' own windows, so its normal equations are
that series' window Gram reordered, and no design matrix is built
either: the fit's only LAPACK calls are ``eigh`` and the ridge solve.
The denoised series spans only about ``r`` of its ``L`` lags, so step
3's ridge is relative — ``ridge`` times the lag Gram's mean diagonal —
or the solve would pick coefficients out of rounding noise (and the two
factorisations, or two BLAS thread counts, would forecast differently).
Step 4 takes one dot of the weights with the window per origin and step.

With the default window ``L = period + 1`` the recurrence spans one full
season, so the model captures periodic structure without hardcoding a
fixed-phase periodic term the way SPAR does — which is exactly what lets
it track drifting periodicity.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import PredictionError
from .base import Predictor, solve_ridge


#: OpenBLAS (0.3.31, numpy 2.4's) runs a ``ddot`` of up to this many
#: elements on one thread and splits a longer one across threads, which
#: sums it in a thread-dependent order.
_DOT_CHUNK = 10_000


def _lagged_dots(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``np.correlate(x, v, "valid")``, whose entries are ``v.size``-long
    dots: past :data:`_DOT_CHUNK` elements each is taken in chunks of at
    most that many, summed in chunk order, so it is the same float at
    any thread count.  A series of at most one chunk takes a single
    ``correlate``."""
    rows = v.size
    span = x.size - rows         # each chunk's window reaches this far on
    dots = np.correlate(x[: _DOT_CHUNK + span], v[:_DOT_CHUNK], "valid")
    for start in range(_DOT_CHUNK, rows, _DOT_CHUNK):
        stop = min(start + _DOT_CHUNK, rows)
        dots += np.correlate(x[start : stop + span], v[start:stop], "valid")
    return dots


def _hankel_gram(x: np.ndarray, lags: int) -> np.ndarray:
    """``page.T @ page`` for the page ``sliding_window_view(x, lags)``,
    from its Hankel structure instead of a GEMM.

    Row 0 is the lagged dot products ``sum_t x[t] x[t + j]``.  Columns
    ``i + 1`` and ``j + 1`` of the page are columns ``i`` and ``j`` slid
    down one slot, so every later entry follows from the one up-left of
    it: ``G[i+1, j+1] = G[i, j] - x[i] x[j] + x[i+rows] x[j+rows]``, one
    row slice per step.  The chains from ``G[0, d]`` and its mirror add
    the same products in the same order, so the result is symmetric
    bitwise.  Its only BLAS calls are row 0's ``rows``-long dots, taken
    by :func:`_lagged_dots` so that the Gram is the same float at any
    thread count.
    """
    rows = x.size - lags + 1
    gram = np.empty((lags, lags))
    gram[0] = _lagged_dots(x, x[:rows])
    gram[1:, 0] = gram[0, 1:]
    head, tail = x[: lags - 1], x[rows:]
    for i in range(lags - 1):
        gram[i + 1, 1:] = gram[i, :-1] - x[i] * head + x[i + rows] * tail
    return gram


def _recurrence_gram(
    y: np.ndarray, lags: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The normal equations ``(design.T @ design, design.T @ targets)``
    of the recurrence ``y(t) = c_0 + sum_{j=1..L-1} c_j y(t - j)``.

    Design row ``t`` is ``[1, y(t-1) .. y(t-L+1)]`` and its target
    ``y(t)``: window ``t`` of ``y`` with its last slot split off and the
    rest reversed.  So the lag block is ``y``'s window Gram reversed,
    the intercept row the window sums, and the right-hand side the
    Gram's last column, and no design matrix is built.
    """
    window = _hankel_gram(y, lags)
    rows = y.size - lags + 1
    totals = _lagged_dots(y, np.ones(rows))
    gram = np.empty((lags, lags))
    gram[0, 0] = rows
    gram[0, 1:] = gram[1:, 0] = totals[-2::-1]
    gram[1:, 1:] = window[-2::-1, -2::-1]
    rhs = np.concatenate(([totals[-1]], window[-2::-1, -1]))
    return gram, rhs


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
        # 1-2. Rank-r denoising of the page of windows: its top-r right
        # singular vectors are the top-r eigenvectors of its L x L
        # window Gram (eigh sorts ascending).  The reconstruction is
        # ``scores @ basis.T``: component i's scores are the series
        # correlated with its singular vector, and its anti-diagonal
        # sums are the scores convolved with it, so neither the page nor
        # the reconstruction is multiplied out.
        r = min(self.rank, lags)
        basis = np.linalg.eigh(_hankel_gram(arr, lags))[1][:, : -r - 1 : -1]
        sums = sum(
            np.convolve(np.correlate(arr, basis[:, i], "valid"), basis[:, i])
            for i in range(r)
        )
        # Slot k lies on min(k + 1, N - k, rows, L) of the page's rows.
        n, rows = arr.size, arr.size - lags + 1
        at = np.arange(n)
        counts = np.minimum(np.minimum(at + 1, n - at), min(rows, lags))
        denoised = sums / counts
        # 3. Ridge-fit the linear recurrence on the denoised series.
        gram, rhs = _recurrence_gram(denoised, lags)
        # The ridge is relative to the mean diagonal (module docstring).
        gram[np.diag_indices(lags)] += self.ridge * np.trace(gram) / lags
        self._coeffs = solve_ridge(gram, rhs)

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
        for at in range(horizon - 1, -1, -1):
            # One BLAS dot per origin: the recurrence's ``weights @
            # window``, the same float for one origin as for a batch.
            value = intercept + np.vecdot(
                buffer[:, at + 1 : at + 1 + n_lags], weights
            )
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
