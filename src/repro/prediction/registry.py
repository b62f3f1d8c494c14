"""The predictor registry: one name → factory table for the whole system.

``repro.api.fit_predictor``, the ``predictive:<name>`` strategy grammar,
``pstore predict --model``, ``pstore serve --predictor`` and the
``shootout`` experiment all resolve forecasters through this module, so
adding a predictor here makes it available everywhere at once.

Each entry is a :class:`PredictorSpec`: the registry slug, the class and
a one-line description.  The *declared* parameters are the constructor's
own keywords and defaults (``params`` reads them off its signature), so
a parameter is written once, on the class.  :meth:`PredictorSpec.build`
validates keyword arguments against that declaration — an unknown
predictor name or an undeclared kwarg raises
:class:`~repro.errors.ConfigurationError` listing what is actually
available, instead of a ``TypeError`` three frames deep — and
:meth:`PredictorSpec.for_period` is the one place that knows which
models take the trace's ``period``.

To add a predictor:

1. subclass :class:`~repro.prediction.base.Predictor`: set its ``name``
   class attribute to the registry slug, write ``_fit`` and
   ``_forecasts``, declare ``min_history`` / ``period`` / ``tau_max``;
2. call :func:`register_predictor` with a :class:`PredictorSpec`
   (module import time is fine — this module registers the whole zoo on
   import);
3. nothing else: the conformance suite in ``tests/test_predictor_zoo.py``
   picks it up automatically.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, Mapping, Tuple

from ..errors import ConfigurationError
from .ar import ArPredictor
from .arma import ArmaPredictor
from .base import Predictor
from .gbt import GbtPredictor
from .mssa import MssaPredictor
from .naive import LastValuePredictor, SeasonalNaivePredictor
from .oracle import OraclePredictor
from .spar import SparPredictor

#: Default slots-per-period for period-aware predictors: one day of
#: 5-minute slots, matching ``repro.api.run``'s trace resolution.
DEFAULT_PERIOD = 288


@dataclass(frozen=True)
class PredictorSpec:
    """One registry entry.

    Parameters
    ----------
    name:
        registry slug (``"spar"``, ``"mssa"``, ...).
    factory:
        the predictor class; called with keyword args it builds an
        *unfitted* predictor.
    description:
        one-line summary for ``--help`` texts and docs.
    needs_truth:
        the series passed to ``fit_predictor`` *is* the model (the
        oracle): the factory takes it as its only positional argument.
    """

    name: str
    factory: Callable[..., Predictor]
    description: str
    needs_truth: bool = False

    @cached_property
    def params(self) -> Mapping[str, Any]:
        """Declared keyword parameters mapped to their defaults: the
        constructor's, with ``period`` defaulting to one 5-minute day.
        ``build`` rejects anything else."""
        if self.needs_truth:
            return {}
        return {
            key: DEFAULT_PERIOD if key == "period" else param.default
            for key, param in inspect.signature(self.factory).parameters.items()
        }

    def build(self, **kwargs: Any) -> Predictor:
        """Construct an unfitted predictor, validating ``kwargs``."""
        if self.needs_truth:
            raise ConfigurationError(
                f"predictor {self.name!r} is built from a ground-truth "
                f"series; construct it through fit_predictor(name, series)"
            )
        params = self.params
        unknown = sorted(set(kwargs) - set(params))
        if unknown:
            accepted = ", ".join(sorted(params)) or "(none)"
            raise ConfigurationError(
                f"predictor {self.name!r} does not accept "
                f"{', '.join(repr(k) for k in unknown)} "
                f"(declared parameters: {accepted})"
            )
        if "period" in params:
            kwargs.setdefault("period", DEFAULT_PERIOD)
        return self.factory(**kwargs)

    def for_period(self, period: int, **kwargs: Any) -> Predictor:
        """:meth:`build` for a trace with ``period`` slots per season:
        seasonal models take it, history-window models (ar/arma/naive)
        declare no period and get none."""
        if "period" in self.params:
            kwargs["period"] = period
        return self.build(**kwargs)


_REGISTRY: Dict[str, PredictorSpec] = {}


def register_predictor(spec: PredictorSpec) -> PredictorSpec:
    """Add one predictor to the registry (slugs must be unique)."""
    if spec.name in _REGISTRY:
        raise ConfigurationError(
            f"predictor {spec.name!r} is already registered"
        )
    _REGISTRY[spec.name] = spec
    return spec


def registered_predictors() -> Tuple[str, ...]:
    """All registry slugs, in registration order."""
    return tuple(_REGISTRY)


def get_predictor_spec(name: str) -> PredictorSpec:
    """Look up one entry; unknown names list what is registered."""
    spec = _REGISTRY.get(str(name))
    if spec is None:
        raise ConfigurationError(
            f"unknown predictor {name!r} "
            f"(expected one of {registered_predictors()})"
        )
    return spec


def build_predictor(name: str, **kwargs: Any) -> Predictor:
    """Resolve ``name`` and build an unfitted predictor."""
    return get_predictor_spec(name).build(**kwargs)


# ----------------------------------------------------------------------
# The zoo.  Order matters: ``repro.api.PREDICTORS`` exposes these in
# registration order, and the first five match the pre-registry tuple.
# ----------------------------------------------------------------------

for _cls, _description in (
    (SparPredictor, "Sparse Periodic Auto-Regression (the paper's Eq. 8)"),
    (ArmaPredictor, "ARMA(p, q) via Hannan-Rissanen (paper baseline)"),
    (ArPredictor, "plain AR(p) least squares (paper baseline)"),
    (LastValuePredictor, "last observed value held flat"),
    (OraclePredictor, "perfect predictions from the ground-truth series"),
    (SeasonalNaivePredictor,
     "seasonal-naive floor: same slot one period earlier"),
    (MssaPredictor, "mSSA/tspDB-style low-rank matrix-factorization forecast"),
    (GbtPredictor, "gradient-boosted trees over lag + calendar features"),
):
    register_predictor(PredictorSpec(
        _cls.name, _cls, _description, needs_truth=_cls is OraclePredictor
    ))
