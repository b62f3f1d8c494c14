"""Experiment: Figure 6 — SPAR on the Wikipedia page-view workloads.

Hourly English- and German-language page requests, four weeks of
training, forecast windows of 1-6 hours.  The paper reports errors under
10% up to two hours ahead even for the less predictable German trace,
and within ~13% at six hours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

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
    actual_24h: np.ndarray
    predicted_24h: np.ndarray
    mre_by_tau: Dict[int, float]


@dataclass
class Figure6Result:
    """SPAR accuracy for the English and German editions."""

    english: LanguageResult
    german: LanguageResult


def _evaluate_language(language: str, eval_days: int, seed: int) -> LanguageResult:
    trace = wikipedia_like_trace(
        n_days=TRAIN_DAYS + eval_days, language=language, seed=seed
    )
    period = trace.slots_per_day  # 24 hourly slots
    train = TRAIN_DAYS * period
    spar = SparPredictor(period=period, n_periods=7, m_recent=12).fit(
        trace.values[:train]
    )
    track = spar.backtest(
        trace.values, tau=1, start=train, stop=train + period
    )
    mre_by_tau = {
        tau: spar.backtest(
            trace.values,
            tau=tau,
            start=train,
            stop=train + eval_days * period,
        ).mean_relative_error()
        for tau in FIGURE6_TAUS
    }
    return LanguageResult(
        language=language,
        actual_24h=track.actual,
        predicted_24h=track.predicted,
        mre_by_tau=mre_by_tau,
    )


def run_figure6(eval_days: int = 14, seed: int = 11) -> Figure6Result:
    """Evaluate SPAR on both Wikipedia-like hourly traces."""
    return Figure6Result(
        english=_evaluate_language("en", eval_days, seed),
        german=_evaluate_language("de", eval_days, seed + 1),
    )


# ----------------------------------------------------------------------
# Sweep-cell protocol
# ----------------------------------------------------------------------


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
    result = _evaluate_language(
        str(spec.option("language", "en")),
        eval_days=int(spec.option("eval_days", 14)),
        seed=spec.seed,
    )
    return {
        "language": result.language,
        "mre_by_tau": {str(t): m for t, m in sorted(result.mre_by_tau.items())},
    }


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
