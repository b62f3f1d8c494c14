"""Experiment: Figure 5 — SPAR's predictions for the B2W load.

(a) a 24-hour track of actual vs 60-minute-ahead predicted load;
(b) mean relative error as a function of the forecast window tau.

The paper trains on four weeks of per-minute data with n = 7 periods and
m = 30 recent measurements, reporting ~10.4% MRE at tau = 60 minutes and
graceful decay with tau.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..analysis.report import claim
from ..prediction import SparPredictor
from ..workload import b2w_like_trace

#: Forecast windows (minutes) swept in Fig. 5b.
FIGURE5_TAUS = (10, 20, 30, 40, 50, 60)


@dataclass
class Figure5Result:
    """SPAR-on-B2W track and MRE-vs-tau sweep."""

    actual_24h: np.ndarray
    predicted_24h: np.ndarray
    mre_by_tau: Dict[int, float]      # tau (minutes) -> MRE fraction
    predictor: SparPredictor

    @property
    def mre_60min_pct(self) -> float:
        return 100.0 * self.mre_by_tau[max(self.mre_by_tau)]


def run_figure5(
    train_days: int = 28,
    eval_days: int = 7,
    seed: int = 7,
    taus: Sequence[int] = FIGURE5_TAUS,
    track_stride: int = 10,
    sweep_stride: int = 31,
) -> Figure5Result:
    """Fit SPAR on four weeks of per-minute data and evaluate it.

    ``track_stride``/``sweep_stride`` thin the evaluation points to keep
    runtime small without changing the statistics materially.
    """
    trace = b2w_like_trace(
        n_days=train_days + eval_days, slot_seconds=60.0, seed=seed
    )
    period = trace.slots_per_day
    train = train_days * period
    spar = SparPredictor(period=period, n_periods=7, m_recent=30).fit(
        trace.values[:train]
    )

    # Panel (a): 60-minute-ahead track over the first held-out day.
    tau = max(taus)
    track = spar.backtest(
        trace.values,
        tau=tau,
        start=train,
        stop=train + period,
        step=track_stride,
    )

    # Panel (b): MRE vs tau over the full held-out week.
    mre_by_tau: Dict[int, float] = {}
    for t in taus:
        result = spar.backtest(
            trace.values,
            tau=t,
            start=train,
            stop=train + eval_days * period,
            step=sweep_stride,
        )
        mre_by_tau[t] = result.mean_relative_error()

    return Figure5Result(
        actual_24h=track.actual,
        predicted_24h=track.predicted,
        mre_by_tau=mre_by_tau,
        predictor=spar,
    )


# ----------------------------------------------------------------------
# Sweep-cell protocol
# ----------------------------------------------------------------------


def grid(taus=FIGURE5_TAUS, seed: int = 7, eval_days: int = 7) -> list:
    from ..runner import RunSpec

    return [
        RunSpec(
            experiment="fig05",
            cell=f"tau-{tau}",
            seed=seed,
            overrides=(("tau", int(tau)), ("eval_days", int(eval_days))),
        )
        for tau in taus
    ]


def run_cell(spec, config) -> dict:
    tau = int(spec.option("tau", 60))
    result = run_figure5(
        eval_days=int(spec.option("eval_days", 7)),
        seed=spec.seed,
        taus=(tau,),
    )
    return {"tau_minutes": tau, "mre": result.mre_by_tau[tau]}


def summarize(result: Figure5Result) -> str:
    sweep = ", ".join(
        f"tau={tau}m: {100.0 * mre:.1f}%"
        for tau, mre in sorted(result.mre_by_tau.items())
    )
    return f"SPAR MRE on B2W: {sweep}"


def claims(result: Figure5Result) -> list:
    mres = [result.mre_by_tau[t] for t in sorted(result.mre_by_tau)]
    return [
        claim("MRE at tau = 60 min", "10.4%", f"{result.mre_60min_pct:.1f}%",
              result.mre_60min_pct < 15.0,
              note="synthetic trace; same order of magnitude"),
        claim("accuracy decays gracefully with tau", "Fig 5b (~6 -> 10.4%)",
              " -> ".join(f"{100 * mre:.1f}%" for mre in mres), mres[0] < mres[-1]),
    ]
