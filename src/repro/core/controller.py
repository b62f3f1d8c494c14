"""The Predictive Controller (Section 6 of the paper).

The controller runs the monitor -> predict -> plan -> migrate cycle:

1. it watches the measured aggregate load (supplied by the simulator or
   by a live monitoring hook);
2. when no migration is in flight, it asks the Predictor for a load
   forecast over the planning horizon (or, in a run whose load series
   is known up front, reads it from a :class:`ForecastTable` of the same
   forecasts) and inflates it by the configured buffer (15% by default,
   Sec. 8.2);
3. it hands the forecast to the Planner (Algorithms 1-3) and keeps only
   the *first* move of the optimal schedule — receding-horizon control;
4. scale-in moves are debounced: the planner must call for them on
   ``scale_in_confirmations`` consecutive cycles before one is issued;
5. if the planner reports that no feasible schedule exists (a flash
   crowd), the controller falls back to a reactive emergency scale-out,
   either at the regular migration rate or at a boosted rate
   (Sec. 4.3.1; both strategies are compared in Fig. 11).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from ..config import PStoreConfig
from ..decision import ScaleDecision
from ..errors import InfeasiblePlanError, PlanningError
from ..persist import Persisted
from ..prediction.base import ForecastTable, Predictor
from ..telemetry import get_telemetry
from .moves import MoveSchedule
from .planner import Planner, PlanRequest


class PredictiveController(Persisted):
    """Receding-horizon controller over a Predictor and a Planner.

    Parameters
    ----------
    config:
        model parameters; also supplies the 15% prediction inflation and
        the 3-cycle scale-in debounce.
    predictor:
        fitted :class:`~repro.prediction.base.Predictor`.
    emergency_rate_multiplier:
        migration-rate boost used on infeasible plans (1.0 reproduces
        the paper's default "keep rate R" policy; 8.0 the boosted one).
    telemetry:
        telemetry bundle to record cycle spans and decision metrics
        into; defaults to the process-global one at construction time.

    While a forecast-drift window of the run's injector (see
    :meth:`start_run`) is open, the predictor's output is scaled by its
    magnitude before inflation (model drift / tampering).
    """

    #: Checkpointed: the scale-in debounce and the forecast snapshot the
    #: next ``plan.decision`` parents on.
    PERSIST = ("_scale_in_streak", "_last_snapshot_id")

    def __init__(
        self,
        config: PStoreConfig,
        predictor: Predictor,
        emergency_rate_multiplier: float = 1.0,
        telemetry=None,
    ):
        if emergency_rate_multiplier <= 0:
            raise PlanningError("emergency_rate_multiplier must be positive")
        self.config = config
        self.predictor = predictor
        self.planner = Planner(config)
        self._injector = None
        #: Forecast window ``T`` in planner intervals:
        #: ``config.horizon_intervals``, or when that is 0 the paper's
        #: lower bound of ``2 D / P`` (time for two back-to-back parallel
        #: migrations), rounded up, plus one.
        self.horizon_intervals = (
            config.horizon_intervals or self.minimum_horizon_intervals(config)
        )
        self.emergency_rate_multiplier = emergency_rate_multiplier
        self._telemetry = telemetry if telemetry is not None else get_telemetry()
        self._scale_in_streak = 0
        self._last_schedule: Optional[MoveSchedule] = None
        self._last_snapshot_id: Optional[str] = None
        #: The run's forecasts, when its whole series is known up front
        #: and the predictor does not learn from it (:meth:`start_run`).
        self._table: Optional[ForecastTable] = None
        #: When set, the next ``plan.decision`` chronicle record parents on
        #: this ID instead of the forecast snapshot — the error-triggered
        #: re-plan path (``repro.serve``) points it at the
        #: ``forecast.accuracy`` record that forced the cycle.  One-shot.
        self.replan_parent: Optional[str] = None

    @staticmethod
    def minimum_horizon_intervals(config: PStoreConfig) -> int:
        """The paper's bound: the horizon must cover two reconfigurations
        with parallel migration, ``2 D / P`` (Sec. 5, "Discussion")."""
        return int(math.ceil(2.0 * config.d_intervals / config.partitions_per_node)) + 1

    def start_run(self, known: Optional[Sequence[float]], injector) -> None:
        """Begin a run under ``injector``'s forecast drift (None: no
        faults).  When its whole load series is ``known`` (a
        capacity run's seeded history plus trace) and the predictor does
        not learn from what it is shown (``min_training is None``), each
        decision's forecast is a row of a :class:`ForecastTable` over
        it: bit-identical to ``predict_horizon`` on the prefix, computed
        a chunk of origins per kernel call.  Otherwise each decision
        forecasts on its own.  The table lasts until the next call."""
        self._injector = injector
        self._table = None
        if known is not None and self.predictor.min_training is None:
            self._table = ForecastTable(
                self.predictor, known, self.horizon_intervals
            )

    @property
    def last_schedule(self) -> Optional[MoveSchedule]:
        """The most recent full plan (for introspection and tests)."""
        return self._last_schedule

    def decide(
        self,
        history: Sequence[float],
        current_machines: int,
        current_load: Optional[float] = None,
    ) -> ScaleDecision:
        """Run one predict-plan cycle and return the action to take.

        ``history`` is the measured load per planner interval up to now
        (in txn/s); ``current_machines`` is the active cluster size.

        When telemetry is enabled the cycle is wrapped in a
        ``controller.cycle`` root span with ``predict.forecast`` and
        ``plan.dp`` children, and the decision outcome is recorded as
        both span attributes and ``controller.decisions`` counters.
        """
        if current_machines < 1:
            raise PlanningError("current_machines must be >= 1")
        replan_parent = self.replan_parent
        self.replan_parent = None
        tel = self._telemetry
        with tel.tracer.span(
            "controller.cycle",
            machines=current_machines,
            history_len=len(history),
        ) as cycle:
            decision = self._decide_cycle(history, current_machines,
                                          current_load, tel)
            cycle.set("reason", decision.reason)
            cycle.set("target_machines", decision.target_machines)
            cycle.set("emergency", decision.emergency)
            if tel.enabled:
                kind = self._decision_kind(decision, current_machines)
                tel.metrics.counter("controller.cycles").inc()
                tel.metrics.counter("controller.decisions", kind=kind).inc()
                tel.metrics.gauge("controller.scale_in_streak").set(
                    self._scale_in_streak
                )
                rec = tel.chronicle.record(
                    "plan.decision",
                    time=float(len(history)) * self.config.interval_seconds,
                    parent=(replan_parent if replan_parent is not None
                            else self._last_snapshot_id),
                    decision_kind=kind,
                    reason=decision.reason,
                    target_machines=decision.target_machines,
                    emergency=decision.emergency,
                    rate_multiplier=decision.rate_multiplier,
                    machines=current_machines,
                )
                decision = replace(decision, record_id=rec.get("id"))
        return decision

    @staticmethod
    def _decision_kind(decision: ScaleDecision, current_machines: int) -> str:
        """Coarse decision category for the ``controller.decisions`` counter."""
        if decision.emergency:
            return "emergency"
        if decision.target_machines is None:
            if decision.reason.startswith("scale-in pending"):
                return "debounce"
            if decision.reason.startswith("first move"):
                return "wait"
            return "steady"
        if decision.target_machines > current_machines:
            return "scale-out"
        return "scale-in"

    def _decide_cycle(
        self,
        history: Sequence[float],
        current_machines: int,
        current_load: Optional[float],
        tel,
    ) -> ScaleDecision:
        with tel.tracer.span(
            "predict.forecast", horizon=self.horizon_intervals
        ) as forecast_span:
            if self._table is not None:
                forecast = self._table.row(history)
            else:
                forecast = self.predictor.predict_horizon(
                    history, self.horizon_intervals
                )
            forecast_span.set("predicted_next", float(forecast[0]))
        # Python floats from here on: the same IEEE products the arrays
        # would give, without a numpy scalar boxed per value on the way
        # into the planner's request.
        forecast = np.asarray(forecast, dtype=float).tolist()
        if self._injector is not None:
            drift = self._injector.forecast_multiplier()
            if drift != 1.0:
                forecast = [value * drift for value in forecast]
        inflation = self.config.prediction_inflation
        inflated = [value * inflation for value in forecast]
        measured_now = float(history[-1]) if current_load is None else current_load
        if tel.enabled:
            # Chronicle + accuracy: the forecast is made right after
            # observing slot ``len(history) - 1``, so predicted[i]
            # targets absolute slot ``len(history) + i`` (tau = i + 1).
            # ``time`` is on the history timeline (includes any seeded
            # training window).
            sim_time = float(len(history)) * self.config.interval_seconds
            origin_slot = len(history) - 1
            predictor_name = self.predictor.name
            snap = tel.chronicle.record(
                "forecast.snapshot",
                time=sim_time,
                origin_slot=origin_slot,
                horizon=self.horizon_intervals,
                predictor=predictor_name,
                measured_now=measured_now,
                predicted_next=forecast[0],
                inflated_next=inflated[0],
                predicted_peak=float(np.max(inflated)),
            )
            self._last_snapshot_id = snap.get("id")
            tel.accuracy.record_forecast(
                origin_slot=origin_slot,
                predicted=forecast,
                inflated=inflated,
                predictor=predictor_name,
                snapshot_id=self._last_snapshot_id,
                time=sim_time,
            )

        plan_span_cm = tel.tracer.span(
            "plan.dp",
            initial_machines=current_machines,
            current_load=measured_now,
        )
        try:
            with plan_span_cm as plan_span:
                plan_span.set("feasible", False)
                schedule = self.planner.best_moves(
                    PlanRequest(
                        predicted_load=tuple(inflated),
                        initial_machines=current_machines,
                        current_load=measured_now,
                    )
                )
                plan_span.set("feasible", True)
                plan_span.set("final_machines", schedule.final_machines)
        except InfeasiblePlanError as infeasible:
            # Flash crowd: scale straight to the required size, reactively.
            self._scale_in_streak = 0
            self._last_schedule = None
            target = max(infeasible.required_machines, current_machines)
            if self.config.max_machines:
                target = min(target, self.config.max_machines)
            if target == current_machines:
                return ScaleDecision(reason="infeasible-but-at-size")
            return ScaleDecision(
                target_machines=target,
                emergency=True,
                rate_multiplier=self.emergency_rate_multiplier,
                reason="no feasible plan; reactive scale-out",
            )

        self._last_schedule = schedule
        first = schedule.first_real_move
        if first is None:
            self._scale_in_streak = 0
            return ScaleDecision(reason="plan is steady")
        if first.start > 0:
            # The first real move starts in the future; wait for it.
            self._scale_in_streak = 0
            return ScaleDecision(
                reason=f"first move starts at interval {first.start}"
            )

        if first.is_scale_in:
            self._scale_in_streak += 1
            if self._scale_in_streak < self.config.scale_in_confirmations:
                return ScaleDecision(
                    reason=(
                        f"scale-in pending confirmation "
                        f"({self._scale_in_streak}/"
                        f"{self.config.scale_in_confirmations})"
                    ),
                )
        self._scale_in_streak = 0
        return ScaleDecision(
            target_machines=first.after,
            reason="scale-in confirmed" if first.is_scale_in else "scale-out due",
        )
