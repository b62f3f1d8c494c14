"""Load time-series prediction (Section 5 of the paper).

SPAR is the paper's model; AR and ARMA are the baselines it compares
against, the seasonal-naive and last-value predictors are sanity floors,
the oracle supplies perfect predictions for Figure 12's "P-Store Oracle"
upper bound, and mSSA/GBT are the drift-aware zoo contenders.  All of
them implement the :class:`Predictor` protocol and are resolvable by
registry slug through :func:`build_predictor` /
:func:`get_predictor_spec` (see ``docs/PREDICTORS.md``).
"""

from .ar import ArPredictor, fit_ar_coefficients
from .arma import ArmaPredictor
from .base import BacktestResult, ForecastTable, Predictor, as_series
from .gbt import GbtPredictor
from .metrics import (
    mean_relative_error,
)
from .mssa import MssaPredictor
from .naive import LastValuePredictor, SeasonalNaivePredictor
from .online import OnlinePredictor
from .oracle import OraclePredictor
from .registry import (
    PredictorSpec,
    build_predictor,
    get_predictor_spec,
    register_predictor,
    registered_predictors,
)
from .spar import SparPredictor

__all__ = [
    "ArPredictor",
    "ArmaPredictor",
    "BacktestResult",
    "ForecastTable",
    "GbtPredictor",
    "LastValuePredictor",
    "MssaPredictor",
    "OnlinePredictor",
    "OraclePredictor",
    "Predictor",
    "PredictorSpec",
    "SeasonalNaivePredictor",
    "SparPredictor",
    "as_series",
    "build_predictor",
    "fit_ar_coefficients",
    "get_predictor_spec",
    "mean_relative_error",
    "register_predictor",
    "registered_predictors",
]
