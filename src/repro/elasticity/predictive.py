"""P-Store's predictive strategy: a thin adapter over the controller.

Wraps :class:`~repro.core.controller.PredictiveController` in the
:class:`~repro.elasticity.base.ProvisioningStrategy` interface so the
simulators can drive P-Store exactly like the baselines.  It also owns
the one warm-up rule (Sec. 6: a model is trained offline or "actively
learns" from the monitored load): no plan until the predictor is fitted
and has ``min_history`` measured slots to forecast from.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..config import PStoreConfig
from ..core.controller import PredictiveController
from ..errors import SimulationError
from ..persist import Persisted
from ..prediction.base import Predictor
from .base import NO_ACTION, ProvisioningStrategy, ScaleDecision


class PStoreStrategy(ProvisioningStrategy, Persisted):
    """Predictive provisioning driven by the DP planner.

    Parameters
    ----------
    config:
        model parameters (Q, D, inflation, debounce, ...).
    predictor:
        a fitted predictor (SPAR for "P-Store SPAR", an
        :class:`~repro.prediction.oracle.OraclePredictor` for
        "P-Store Oracle" in Fig. 12), or one that declares
        ``min_training`` — an
        :class:`~repro.prediction.online.OnlinePredictor` that will fit
        itself from the load it is shown; the strategy answers
        ``NO_ACTION`` until it has.
    emergency_rate_multiplier:
        migration-rate boost for infeasible plans (Fig. 11 compares
        1.0 and 8.0).
    """

    PERSIST = ("controller",)

    def __init__(
        self,
        config: PStoreConfig,
        predictor: Predictor,
        emergency_rate_multiplier: float = 1.0,
        name: str = "p-store",
        telemetry=None,
    ):
        if not predictor.is_fitted and predictor.min_training is None:
            raise SimulationError("predictor must be fitted before use")
        self.config = config
        self.controller = PredictiveController(
            config=config,
            predictor=predictor,
            emergency_rate_multiplier=emergency_rate_multiplier,
            telemetry=telemetry,
        )
        self.name = name

    @property
    def min_history(self) -> int:
        """Measured intervals the predictor needs before the first plan."""
        return self.controller.predictor.min_history

    def warmed_up(self, history_tps: Sequence[float]) -> bool:
        """Whether the predictor can forecast from ``history_tps`` yet."""
        return (
            self.controller.predictor.is_fitted
            and len(history_tps) >= self.min_history
        )

    def reset(self, initial_machines: int, known=None, injector=None) -> None:
        """A run whose whole series is ``known`` forecasts from a table
        over it, and ``injector``'s forecast drift scales its forecasts
        (:meth:`PredictiveController.start_run`)."""
        super().reset(initial_machines, known, injector)
        self.controller.start_run(known, injector)

    def decide(
        self,
        slot: int,
        history_tps: Sequence[float],
        current_machines: int,
    ) -> ScaleDecision:
        if not self.warmed_up(history_tps):
            return NO_ACTION  # still warming up the predictor
        return self.controller.decide(history_tps, current_machines)

    def decide_run(
        self,
        slot: int,
        history_tps: Sequence[float],
        current_machines: int,
        count: int,
    ) -> Tuple[int, ScaleDecision]:
        """A block of the controller's
        (:meth:`PredictiveController.decide_run`); a predictor that is
        not warmed up at ``slot`` answers ``NO_ACTION`` for it alone."""
        if not self.warmed_up(history_tps):
            return 0, NO_ACTION
        return self.controller.decide_run(
            history_tps, current_machines, count
        )
