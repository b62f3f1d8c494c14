"""P-Store: an elastic OLTP DBMS with predictive provisioning.

A from-scratch Python reproduction of *P-Store: An Elastic Database
System with Predictive Provisioning* (Taft et al., SIGMOD 2018).

Quick tour
----------

>>> from repro import (
...     PStoreConfig, Planner, SparPredictor, PredictiveController,
... )

* :mod:`repro.core` — the paper's contribution: the analytic move model
  (Eqs. 2-7), the dynamic-programming planner (Algs. 1-3), and the
  receding-horizon Predictive Controller;
* :mod:`repro.prediction` — the predictor zoo (SPAR, AR, ARMA, mSSA,
  gradient-boosted trees, seasonal/last-value naive, oracle) behind one
  protocol and registry (``docs/PREDICTORS.md``);
* :mod:`repro.workload` — load traces and calibrated synthetic
  generators (B2W-like retail traffic, Wikipedia-like page views);
* :mod:`repro.hstore` — the simulated partitioned main-memory DBMS;
* :mod:`repro.squall` — live-migration plans, parallel schedules, and
  simulated-time execution;
* :mod:`repro.benchmark` — the B2W benchmark (schema, 19 transactions,
  trace-driven driver);
* :mod:`repro.elasticity` — provisioning strategies (P-Store, reactive,
  static, simple, manual);
* :mod:`repro.sim` — the second-granularity DBMS simulator and the fast
  capacity simulator used for multi-month sweeps;
* :mod:`repro.analysis` — tail CDFs, queueing thresholds, the causal
  attribution behind ``pstore explain``, report rendering (each
  figure's arithmetic lives in its :mod:`repro.experiments` module);
* :mod:`repro.telemetry` — metrics, spans, and the causal chronicle with
  JSONL/JSON exporters and an ASCII dashboard (off by default; see
  ``docs/OBSERVABILITY.md``);
* :mod:`repro.faults` — declarative fault injection (crashes,
  stragglers, stalled/corrupted transfers, forecast drift) and the
  recovery machinery driven by it (off by default; see
  ``docs/FAULTS.md``);
* :mod:`repro.runner` — the parallel sweep executor with
  content-addressed result caching behind ``pstore sweep``;
* :mod:`repro.api` — the stable facade (:func:`repro.run`,
  :func:`repro.sweep`, :func:`repro.load_trace`,
  :func:`repro.fit_predictor`); prefer it over the internal packages
  (see ``docs/API.md``).
"""

from .config import (
    FaultConfig,
    PStoreConfig,
    SINGLE_NODE_SATURATION_TPS,
    default_config,
)
from .core import (
    Move,
    MoveSchedule,
    Planner,
    PlanRequest,
    PredictiveController,
)
from .errors import (
    ConfigurationError,
    FaultError,
    InfeasiblePlanError,
    MigrationError,
    NotFittedError,
    PlanningError,
    PredictionError,
    PStoreError,
    SimulationError,
    TelemetryError,
    TransactionAbort,
)
from .faults import (
    FaultInjector,
    FaultScenario,
    FaultSpec,
)
from .prediction import (
    ArmaPredictor,
    ArPredictor,
    GbtPredictor,
    MssaPredictor,
    OraclePredictor,
    Predictor,
    SeasonalNaivePredictor,
    SparPredictor,
    registered_predictors,
)
from .workload import LoadTrace, b2w_like_trace, wikipedia_like_trace

# The facade imports repro.runner, which builds on the modules above;
# keep this import last.
from .api import (  # noqa: E402  (intentional late import)
    RunResult,
    fit_predictor,
    load_trace,
    run,
    sweep,
)
from .elasticity import StrategySpec
from .runner import RunSpec

__version__ = "1.3.0"

__all__ = [
    "ArPredictor",
    "ArmaPredictor",
    "GbtPredictor",
    "MssaPredictor",
    "Predictor",
    "SeasonalNaivePredictor",
    "registered_predictors",
    "ConfigurationError",
    "FaultConfig",
    "FaultError",
    "FaultInjector",
    "FaultScenario",
    "FaultSpec",
    "InfeasiblePlanError",
    "LoadTrace",
    "MigrationError",
    "Move",
    "MoveSchedule",
    "NotFittedError",
    "OraclePredictor",
    "PStoreConfig",
    "PStoreError",
    "PlanRequest",
    "Planner",
    "PlanningError",
    "PredictionError",
    "PredictiveController",
    "RunResult",
    "RunSpec",
    "SINGLE_NODE_SATURATION_TPS",
    "SimulationError",
    "SparPredictor",
    "StrategySpec",
    "TelemetryError",
    "TransactionAbort",
    "b2w_like_trace",
    "default_config",
    "fit_predictor",
    "load_trace",
    "run",
    "sweep",
    "wikipedia_like_trace",
]
