"""Stable high-level API for the P-Store reproduction.

Four entry points cover the common workflows without touching the
internal packages (see ``docs/API.md``):

>>> import repro
>>> result = repro.run(strategy="static:6", days=2)      # one simulation
>>> report = repro.sweep("smoke", jobs=4)                # a cached grid
>>> trace = repro.load_trace("trace.csv")                # trace I/O
>>> spar = repro.fit_predictor("spar", series, period=288)

:func:`run` returns a frozen dataclass with ``.to_json()`` /
``.summary()``; the heavyweight result object (full per-slot series)
stays reachable through ``.detail``.  :func:`sweep` returns the
executor's :class:`~repro.runner.SweepReport` (``payloads``,
``result_hash``, ``summary()``, ``write_manifest()``).  Everything the
CLI prints is derived from them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .config import PStoreConfig, default_config
from .elasticity import StrategySpec
from .errors import ConfigurationError
from .prediction import Predictor, get_predictor_spec, registered_predictors
from .runner import RunSpec, SweepReport
from .workload import LoadTrace, b2w_like_trace

#: Training window (days) used by :func:`run`, matching the paper.
TRAIN_DAYS = 28

#: Patience the CLI's reactive baseline has always used.
REACTIVE_PATIENCE = 12


# ----------------------------------------------------------------------
# run()
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RunResult:
    """Headline numbers of one capacity simulation."""

    strategy: str                 # canonical spec, e.g. "static:machines=6"
    strategy_name: str            # the strategy's display name, "static-6"
    days: int
    seed: int
    slots: int
    cost_machine_slots: float
    average_machines: float
    pct_time_insufficient: float
    moves_started: int
    emergencies: int
    #: The full :class:`~repro.sim.CapacitySimResult` (per-slot series).
    detail: Any = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "strategy_name": self.strategy_name,
            "days": self.days,
            "seed": self.seed,
            "slots": self.slots,
            "cost_machine_slots": self.cost_machine_slots,
            "average_machines": self.average_machines,
            "pct_time_insufficient": self.pct_time_insufficient,
            "moves_started": self.moves_started,
            "emergencies": self.emergencies,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    def summary(self) -> str:
        return (
            f"{self.strategy_name}: avg machines {self.average_machines:.2f}, "
            f"insufficient {self.pct_time_insufficient:.2f}% of time, "
            f"{self.moves_started} moves ({self.emergencies} emergency) "
            f"over {self.days} day(s)"
        )


def run(
    config: Optional[PStoreConfig] = None,
    *,
    strategy: Union[str, StrategySpec] = "p-store",
    days: int = 14,
    seed: int = 7,
    peak_tps: float = 1450.0,
    trace: Optional[LoadTrace] = None,
) -> RunResult:
    """Capacity-simulate one provisioning strategy over a B2W-like trace.

    Mirrors ``pstore simulate``: four weeks of training data precede the
    ``days``-long evaluation window; ``p-store`` specs get a SPAR model
    fitted on the training window, and ``predictive:<name>`` specs get
    the named registry predictor (``predictive:oracle`` is fed the true
    evaluation series).  ``trace``, when given, must cover
    ``TRAIN_DAYS + days`` at 300 s slots and replaces the generator.
    """
    from .sim import run_capacity_simulation

    spec = (
        strategy
        if isinstance(strategy, StrategySpec)
        else StrategySpec.parse(strategy)
    )
    config = (config or default_config()).with_interval(300.0)
    if trace is None:
        trace = b2w_like_trace(
            n_days=TRAIN_DAYS + days,
            slot_seconds=300.0,
            seed=seed,
            base_level=peak_tps * 300.0,
        )
    train = trace.slice_days(0, TRAIN_DAYS).as_rate_per_second()
    evaluation = trace.slice_days(TRAIN_DAYS, days)

    predictor = None
    history: list = []
    if spec.needs_predictor:
        pspec = get_predictor_spec(spec.predictor_name)
        if pspec.needs_truth:
            predictor = pspec.factory(
                np.concatenate([train, evaluation.as_rate_per_second()])
            )
        else:
            predictor = pspec.for_period(288).fit(train)
        history = [float(v) for v in train]
    if spec.kind == "reactive" and spec.param("patience") is None:
        spec = StrategySpec(
            kind="reactive",
            params=spec.params + (("patience", REACTIVE_PATIENCE),),
        )
    built = spec.build(config, predictor=predictor, slots_per_day=288)
    initial = (
        int(spec.param("machines"))
        if spec.kind == "static"
        else config.servers_for_load(
            evaluation.as_rate_per_second()[0] * 1.3
        )
    )
    result = run_capacity_simulation(
        evaluation, built, config, initial, history_seed=history
    )
    return RunResult(
        strategy=spec.canonical(),
        strategy_name=result.strategy_name,
        days=days,
        seed=seed,
        slots=result.n_slots,
        cost_machine_slots=result.cost_machine_slots,
        average_machines=result.average_machines,
        pct_time_insufficient=result.pct_time_insufficient,
        moves_started=result.moves_started,
        emergencies=result.emergencies,
        detail=result,
    )


# ----------------------------------------------------------------------
# sweep()
# ----------------------------------------------------------------------


def sweep(
    grid: Union[str, Sequence[RunSpec]],
    *,
    config: Optional[PStoreConfig] = None,
    jobs: int = 1,
    cache_dir: Union[str, None] = None,
    force: bool = False,
    record_events: bool = False,
    grid_options: Optional[Dict[str, Any]] = None,
    backend: str = "auto",
) -> SweepReport:
    """Execute an experiment's cell grid through the cached executor.

    ``grid`` is an experiment name (its registered grid is used,
    parameterised by ``grid_options``) or an explicit list of
    :class:`~repro.runner.RunSpec` cells.  Cells already in the cache
    under the active config are served from disk; set ``force=True`` to
    re-execute everything.  ``backend`` selects how dirty cells run
    (``auto``/``serial``/``process``/``tensor``); ``auto`` batches the
    whole grid through the tensor engine when every cell supports it.
    Returns the executor's :class:`~repro.runner.SweepReport`.
    """
    from .experiments.registry import get_experiment
    from .runner import ResultCache, run_sweep
    from .runner.cache import default_cache_root

    if isinstance(grid, str):
        grid = get_experiment(grid).make_grid(**(grid_options or {}))
    return run_sweep(
        grid,
        config,
        ResultCache(cache_dir if cache_dir else default_cache_root()),
        jobs=jobs,
        force=force,
        record_events=record_events,
        backend=backend,
    )


# ----------------------------------------------------------------------
# load_trace() / fit_predictor()
# ----------------------------------------------------------------------


def load_trace(path) -> LoadTrace:
    """Read a load trace from the CSV format ``pstore generate`` writes.

    Served through the per-process trace memo (keyed on path + mtime +
    size): traces are immutable, so repeat loads of the same unchanged
    file share one parsed object.
    """
    from .workload.io import read_trace_csv_cached

    return read_trace_csv_cached(path)


#: Registered predictor slugs, in registration order.  The first five
#: match the pre-registry families; the zoo extends the tuple.
PREDICTORS: Tuple[str, ...] = registered_predictors()


def fit_predictor(name: str, series, **params) -> Predictor:
    """Build and fit a predictor by registry slug.

    Resolves ``name`` through the predictor registry
    (:mod:`repro.prediction.registry`): unknown slugs raise
    :class:`~repro.errors.ConfigurationError` listing what is
    registered, and ``params`` are validated against the predictor's
    declared parameters (e.g. ``period``/``n_periods``/``m_recent`` for
    SPAR, ``rank`` for mSSA) instead of being silently ignored.  Returns
    the fitted :class:`~repro.prediction.Predictor`; the oracle is
    constructed directly from ``series`` as its ground truth.
    """
    spec = get_predictor_spec(str(name).lower())
    if spec.needs_truth:
        if params:
            raise ConfigurationError(
                f"predictor {spec.name!r} takes no parameters "
                f"(got {sorted(params)})"
            )
        return spec.factory(series)
    return spec.build(**params).fit(series)


__all__ = [
    "PREDICTORS",
    "RunResult",
    "fit_predictor",
    "load_trace",
    "run",
    "sweep",
]
