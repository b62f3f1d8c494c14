"""Experiment: Figure 6 — SPAR on the Wikipedia page-view workloads.

Hourly English- and German-language page requests, four weeks of
training, forecast windows of 1-6 hours.  The paper reports errors under
10% up to two hours ahead even for the less predictable German trace,
and within ~13% at six hours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..analysis.report import claim
from ..prediction import SparPredictor
from ..workload import wikipedia_like_trace
from .common import TRAIN_DAYS

#: Forecast windows (hours) swept in Fig. 6b.
FIGURE6_TAUS = (1, 2, 3, 4, 5, 6)


@dataclass
class LanguageResult:
    """SPAR accuracy for one Wikipedia edition."""

    language: str
    mre_by_tau: Dict[int, float]


@dataclass
class Figure6Result:
    """SPAR accuracy for the English and German editions."""

    english: LanguageResult
    german: LanguageResult


def grid(seed: int = 11, eval_days: int = 14) -> list:
    from ..runner import RunSpec

    return [
        RunSpec(
            experiment="fig06",
            cell=language,
            seed=seed + offset,
            overrides=(
                ("language", language),
                ("eval_days", int(eval_days)),
            ),
        )
        for offset, language in enumerate(("en", "de"))
    ]


def run_cell(spec, config) -> dict:
    """Fit SPAR on one edition's four training weeks and backtest it
    1-6 hours ahead over the held-out days."""
    language = str(spec.option("language", "en"))
    eval_days = int(spec.option("eval_days", 14))
    trace = wikipedia_like_trace(
        n_days=TRAIN_DAYS + eval_days, language=language, seed=spec.seed
    )
    period = trace.slots_per_day  # 24 hourly slots
    train = TRAIN_DAYS * period
    spar = SparPredictor(period=period, n_periods=7, m_recent=12).fit(
        trace.values[:train]
    )
    return {
        "language": language,
        "mre_by_tau": {
            str(tau): spar.backtest(
                trace.values,
                tau=tau,
                start=train,
                stop=train + eval_days * period,
            ).mean_relative_error()
            for tau in FIGURE6_TAUS
        },
    }


def fold(payloads) -> Figure6Result:
    english, german = (
        LanguageResult(
            language=p["language"],
            mre_by_tau={int(tau): m for tau, m in p["mre_by_tau"].items()},
        )
        for p in payloads.values()
    )
    return Figure6Result(english=english, german=german)


def summarize(result: Figure6Result) -> str:
    lines = []
    for lang in (result.english, result.german):
        sweep = ", ".join(
            f"{tau}h: {100.0 * mre:.1f}%"
            for tau, mre in sorted(lang.mre_by_tau.items())
        )
        lines.append(f"{lang.language}: {sweep}")
    return "\n".join(lines)


def claims(result: Figure6Result) -> list:
    english, german = result.english.mre_by_tau, result.german.mre_by_tau
    return [
        claim("German MRE at tau <= 2h", "< 10%", f"{100 * german[2]:.1f}%",
              german[2] < 0.12),
        claim("German MRE at tau = 6h", "~13%", f"{100 * german[6]:.1f}%",
              german[6] < 0.25),
        claim("English easier than German", "Fig 6b",
              f"{100 * english[6]:.1f}% vs {100 * german[6]:.1f}% at 6h",
              english[6] < german[6]),
    ]
