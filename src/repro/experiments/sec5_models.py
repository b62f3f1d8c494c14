"""Experiment: Section 5's model comparison — SPAR vs ARMA vs AR.

"For example, under tau = 60 minutes, the MRE for predicting the B2W
load is 10.4%, 12.2%, and 12.5% under SPAR, ARMA, and AR, respectively."
The absolute numbers depend on the trace; the *ordering* (SPAR best,
plain AR worst) is the claim this experiment reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..analysis.report import claim
from ..prediction import ArmaPredictor, ArPredictor, SparPredictor
from ..workload import b2w_like_trace
from .common import TRAIN_DAYS

#: The held-out week after the four training weeks (per-minute slots).
EVAL_DAYS = 7
#: The comparison's lead time (the paper's tau = 60 minutes).
TAU_MINUTES = 60


@dataclass
class ModelComparisonResult:
    """MRE per model at the comparison tau."""

    mre_by_model: Dict[str, float]   # model name -> MRE fraction

    @property
    def ordering(self):
        return sorted(self.mre_by_model, key=self.mre_by_model.get)


def grid(seed: int = 7) -> list:
    from ..runner import RunSpec

    return [
        RunSpec(
            experiment="sec5",
            cell=model.lower(),
            seed=seed,
            overrides=(("model", model),),
        )
        for model in ("SPAR", "ARMA", "AR")
    ]


def run_cell(spec, config) -> dict:
    """Fit the cell's model on four weeks, backtest it on the fifth."""
    name = str(spec.option("model", "SPAR"))
    trace = b2w_like_trace(
        n_days=TRAIN_DAYS + EVAL_DAYS, slot_seconds=60.0, seed=spec.seed
    )
    period = trace.slots_per_day
    train = TRAIN_DAYS * period
    model = {
        "SPAR": SparPredictor(period=period, n_periods=7, m_recent=30),
        "ARMA": ArmaPredictor(p=30, q=10),
        "AR": ArPredictor(order=30),
    }[name]
    model.fit(trace.values[:train])
    mre = model.backtest(
        trace.values,
        tau=TAU_MINUTES,
        start=train,
        stop=train + EVAL_DAYS * period,
        step=31,
    ).mean_relative_error()
    return {"model": name, "mre": mre}


def fold(payloads) -> ModelComparisonResult:
    return ModelComparisonResult(
        mre_by_model={p["model"]: p["mre"] for p in payloads.values()}
    )


def summarize(result: ModelComparisonResult) -> str:
    ranked = ", ".join(
        f"{name}: {100.0 * result.mre_by_model[name]:.1f}%"
        for name in result.ordering
    )
    return f"MRE at tau=60 min — {ranked} (best first)"


def claims(result: ModelComparisonResult) -> list:
    mre = result.mre_by_model
    return [
        claim("ranking", "SPAR < ARMA < AR", " < ".join(result.ordering),
              result.ordering[0] == "SPAR", note="holds = SPAR is best"),
        claim("SPAR MRE", "10.4%", f"{100 * mre['SPAR']:.1f}%"),
        claim("ARMA MRE", "12.2%", f"{100 * mre['ARMA']:.1f}%",
              mre["SPAR"] < mre["ARMA"], note="holds = worse than SPAR"),
        claim("AR MRE", "12.5%", f"{100 * mre['AR']:.1f}%",
              mre["SPAR"] < mre["AR"], note="holds = worse than SPAR"),
    ]
