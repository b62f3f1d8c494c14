"""Experiment: Figure 13 — effective capacity around Black Friday.

Two 4-day windows of the seasonal simulation: an ordinary window at the
start, and the Black Friday surge (hour ~2800 of the trace, i.e. day
~116).  The claim: the "Simple" clock-driven strategy looks adequate on
ordinary days but breaks on the surge, while P-Store (predictive +
reactive fallback) keeps effective capacity above the load even on
Black Friday.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..analysis.report import claim
from ..elasticity import StrategySpec
from ..sim import run_capacity_simulation
from .common import by_cell, capacity_payload
from .fig12 import BLACK_FRIDAY_DAY, season_setup, simple_strategy_for

#: The two 4-day windows of the figure, by name.
WINDOWS = ("ordinary", "black_friday")


@dataclass
class Figure13Result:
    """Per strategy, the fraction of each window where load exceeds
    effective capacity."""

    #: strategy -> window (:data:`WINDOWS`) -> insufficient fraction.
    insufficient: Dict[str, Dict[str, float]]


def grid(n_days: int = 120, seed: int = 7) -> list:
    from ..runner import RunSpec

    return [
        RunSpec(
            experiment="fig13",
            cell=cell,
            strategy=strategy,
            seed=seed,
            overrides=(("n_days", int(n_days)),),
        )
        for cell, strategy in (
            ("p-store-spar", "p-store:name=p-store-spar"),
            ("simple", "simple:6/3"),
        )
    ]


def run_cell(spec, config) -> dict:
    """Simulate the one strategy a cell names over the season (the
    Simple cell is sized from the training profile, not from its spec's
    placeholder day/night counts) and measure it on both windows: an
    ordinary one from day 0.5 and the one around Black Friday."""
    setup = season_setup(n_days=int(spec.option("n_days", 120)), seed=spec.seed)
    config = setup.config
    parsed = StrategySpec.parse(spec.strategy)
    if parsed.kind == "p-store":
        strategy = parsed.build(config, predictor=setup.spar)
        history = list(setup.train_tps)
    else:
        strategy = simple_strategy_for(setup, config)
        history = []
    result = run_capacity_simulation(
        setup.trace,
        strategy,
        config,
        initial_machines=config.servers_for_load(
            float(setup.eval_tps[0]) * 1.3
        ),
        history_seed=history,
    )
    eval_days = len(setup.trace) / 288.0
    starts = (0.5, max(0.0, min(BLACK_FRIDAY_DAY - 1.5, eval_days - 4.0)))
    windows = {}
    for name, start_day in zip(WINDOWS, starts):
        window = slice(int(start_day * 288), int((start_day + 4.0) * 288))
        windows[name] = float(np.mean(
            setup.eval_tps[window] > result.eff_cap_max[window] + 1e-9
        ))
    payload = capacity_payload(result)
    payload["insufficient_fraction"] = windows
    return payload


def fold(payloads) -> Figure13Result:
    return Figure13Result(insufficient={
        cell: payload["insufficient_fraction"]
        for cell, payload in by_cell(payloads).items()
    })


def summarize(result: Figure13Result) -> str:
    lines = []
    for name, windows in result.insufficient.items():
        ordinary, surge = (windows[window] for window in WINDOWS)
        lines.append(
            f"{name}: insufficient {100 * ordinary:.1f}% of the ordinary "
            f"window, {100 * surge:.1f}% of the Black Friday window"
        )
    return "\n".join(lines)


def claims(result: Figure13Result) -> list:
    simple_ord, simple_bf = (
        result.insufficient["simple"][window] for window in WINDOWS
    )
    pstore_bf = result.insufficient["p-store-spar"]["black_friday"]
    return [
        claim("simple adequate on ordinary days", "Fig 13 left",
              f"insufficient {100 * simple_ord:.1f}% of window", simple_ord < 0.05),
        claim("simple breaks down on Black Friday", "Fig 13 right",
              f"insufficient {100 * simple_bf:.1f}% of window",
              simple_bf > 2 * max(simple_ord, 0.01)),
        claim("P-Store handles Black Friday", "predictive + reactive",
              f"insufficient {100 * pstore_bf:.1f}% of window", pstore_bf < 0.02),
    ]
