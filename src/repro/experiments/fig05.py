"""Experiment: Figure 5 — SPAR's predictions for the B2W load.

We regenerate panel (b), the mean relative error as a function of the
forecast window tau; panel (a), a 24-hour track of the 60-minute-ahead
forecast, is a picture of the same model.

The paper trains on four weeks of per-minute data with n = 7 periods and
m = 30 recent measurements, reporting ~10.4% MRE at tau = 60 minutes and
graceful decay with tau.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..analysis.report import claim
from ..prediction import SparPredictor
from ..workload import b2w_like_trace
from .common import TRAIN_DAYS

#: Forecast windows (minutes) swept in Fig. 5b.
FIGURE5_TAUS = (10, 20, 30, 40, 50, 60)


@dataclass
class Figure5Result:
    """SPAR-on-B2W MRE-vs-tau sweep."""

    mre_by_tau: Dict[int, float]      # tau (minutes) -> MRE fraction

    @property
    def mre_60min_pct(self) -> float:
        return 100.0 * self.mre_by_tau[max(self.mre_by_tau)]


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
    """Fit SPAR on four weeks of per-minute data and backtest it
    ``tau`` minutes ahead over the held-out days.

    The evaluation origins are thinned (every 31st minute) to keep the
    runtime small without changing the statistic materially.
    """
    tau = int(spec.option("tau", 60))
    eval_days = int(spec.option("eval_days", 7))
    trace = b2w_like_trace(
        n_days=TRAIN_DAYS + eval_days, slot_seconds=60.0, seed=spec.seed
    )
    period = trace.slots_per_day
    train = TRAIN_DAYS * period
    spar = SparPredictor(period=period, n_periods=7, m_recent=30).fit(
        trace.values[:train]
    )
    mre = spar.backtest(
        trace.values,
        tau=tau,
        start=train,
        stop=train + eval_days * period,
        step=31,
    ).mean_relative_error()
    return {"tau_minutes": tau, "mre": mre}


def fold(payloads) -> Figure5Result:
    return Figure5Result(mre_by_tau={
        p["tau_minutes"]: p["mre"] for p in payloads.values()
    })


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
