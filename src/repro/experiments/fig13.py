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
from typing import Dict, Optional

import numpy as np

from ..analysis.report import claim
from ..elasticity import StrategySpec
from ..sim import CapacitySimResult, run_capacity_simulation
from .common import capacity_payload
from .fig12 import (
    BLACK_FRIDAY_DAY,
    SeasonSetup,
    season_setup,
    simple_strategy_for,
)


@dataclass
class WindowSeries:
    """Load and per-strategy effective capacity for one 4-day window."""

    start_day: float
    hours: np.ndarray
    load_tps: np.ndarray
    eff_cap: Dict[str, np.ndarray]

    def insufficient_fraction(self, strategy: str) -> float:
        """Fraction of the window where load exceeds effective capacity."""
        cap = self.eff_cap[strategy]
        return float(np.mean(self.load_tps > cap + 1e-9))


@dataclass
class Figure13Result:
    """Ordinary and Black-Friday windows plus full runs."""

    ordinary: WindowSeries
    black_friday: WindowSeries
    runs: Dict[str, CapacitySimResult]
    setup: SeasonSetup


def _window(
    setup: SeasonSetup,
    runs: Dict[str, CapacitySimResult],
    start_day: float,
    n_days: float,
) -> WindowSeries:
    slots_per_day = 288
    lo = int(start_day * slots_per_day)
    hi = int((start_day + n_days) * slots_per_day)
    load = setup.eval_tps[lo:hi]
    hours = (np.arange(lo, hi) * 300.0) / 3600.0
    eff = {
        name: result.eff_cap_max[lo:hi] for name, result in runs.items()
    }
    return WindowSeries(
        start_day=start_day, hours=hours, load_tps=load, eff_cap=eff
    )


def run_figure13(
    n_days: int = 120,
    seed: int = 7,
    setup: Optional[SeasonSetup] = None,
) -> Figure13Result:
    """Simulate P-Store SPAR and Simple over the season — the two cells
    of :func:`grid` on one shared setup — and extract the windows."""
    setup = setup or season_setup(n_days=n_days, seed=seed)
    runs = {
        spec.cell: _run_point(setup, spec) for spec in grid(n_days, seed)
    }
    eval_days = len(setup.trace) / 288.0
    bf_start = min(BLACK_FRIDAY_DAY - 1.5, eval_days - 4.0)
    return Figure13Result(
        ordinary=_window(setup, runs, start_day=0.5, n_days=4.0),
        black_friday=_window(setup, runs, start_day=max(0.0, bf_start), n_days=4.0),
        runs=runs,
        setup=setup,
    )


# ----------------------------------------------------------------------
# Sweep-cell protocol
# ----------------------------------------------------------------------


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


def _run_point(setup: SeasonSetup, spec) -> CapacitySimResult:
    """Simulate the one strategy a grid cell names over the season (the
    Simple cell is sized from the training profile, not from its spec's
    placeholder day/night counts)."""
    config = setup.config
    parsed = StrategySpec.parse(spec.strategy)
    if parsed.kind == "p-store":
        strategy = parsed.build(config, predictor=setup.spar)
        history = list(setup.train_tps)
    else:
        strategy = simple_strategy_for(setup, config)
        history = []
    return run_capacity_simulation(
        setup.trace,
        strategy,
        config,
        initial_machines=config.servers_for_load(
            float(setup.eval_tps[0]) * 1.3
        ),
        history_seed=history,
    )


def run_cell(spec, config) -> dict:
    setup = season_setup(n_days=int(spec.option("n_days", 120)), seed=spec.seed)
    return capacity_payload(_run_point(setup, spec))


def summarize(result: Figure13Result) -> str:
    lines = []
    for name in result.runs:
        ordinary = result.ordinary.insufficient_fraction(name)
        surge = result.black_friday.insufficient_fraction(name)
        lines.append(
            f"{name}: insufficient {100 * ordinary:.1f}% of the ordinary "
            f"window, {100 * surge:.1f}% of the Black Friday window"
        )
    return "\n".join(lines)


def claims(result: Figure13Result) -> list:
    simple_ord = result.ordinary.insufficient_fraction("simple")
    simple_bf = result.black_friday.insufficient_fraction("simple")
    pstore_bf = result.black_friday.insufficient_fraction("p-store-spar")
    return [
        claim("simple adequate on ordinary days", "Fig 13 left",
              f"insufficient {100 * simple_ord:.1f}% of window", simple_ord < 0.05),
        claim("simple breaks down on Black Friday", "Fig 13 right",
              f"insufficient {100 * simple_bf:.1f}% of window",
              simple_bf > 2 * max(simple_ord, 0.01)),
        claim("P-Store handles Black Friday", "predictive + reactive",
              f"insufficient {100 * pstore_bf:.1f}% of window", pstore_bf < 0.02),
    ]
