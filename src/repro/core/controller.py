"""The Predictive Controller (Section 6 of the paper).

The controller runs the monitor -> predict -> plan -> migrate cycle:

1. it watches the measured aggregate load (supplied by the simulator or
   by a live monitoring hook);
2. when no migration is in flight, it asks the Predictor for a load
   forecast over the planning horizon and inflates it by the configured
   buffer (15% by default, Sec. 8.2).  A run whose load series is known
   up front reads its forecasts from a :class:`ForecastTable` of the
   same forecasts, and then decides a block of slots per call
   (:meth:`PredictiveController.decide_run`): their inflated rows as one
   array, their feasibility patterns gathered together, their plans
   answered in slot order up to the first decision that acts;
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
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from ..config import PStoreConfig
from ..decision import ScaleDecision
from ..errors import InfeasiblePlanError, PlanningError
from ..persist import Persisted
from ..prediction.base import ForecastTable, Predictor
from ..telemetry import get_telemetry
from .moves import MoveSchedule
from .planner import Planner


#: The decisions most slots of a run end in, made once.
_STEADY = ScaleDecision(reason="plan is steady")


@lru_cache(maxsize=None)
def _waiting(start: int) -> ScaleDecision:
    return ScaleDecision(reason=f"first move starts at interval {start}")


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
        """Run one predict-plan cycle and return the action to take:
        :meth:`decide_run` over a block of one slot.

        ``history`` is the measured load per planner interval up to now
        (in txn/s); ``current_machines`` is the active cluster size.
        """
        return self.decide_run(history, current_machines, 1, current_load)[1]

    def decide_run(
        self,
        history: Sequence[float],
        current_machines: int,
        count: int = 1,
        current_load: Optional[float] = None,
    ) -> Tuple[int, ScaleDecision]:
        """Decide a block of slots at ``current_machines``: the slot
        ``history`` ends at and up to ``count - 1`` slots after it, in
        order, stopping at the first decision that acts.

        Returns ``(offset, decision)``: the last slot decided, as an
        offset from the first, and its decision; every slot before it
        was decided not to act.  The slots after the first read their
        histories from the run's known series, so a block is one slot
        unless the run's forecasts come from a table
        (:meth:`start_run`), no injector is attached (its drift may
        change between slots) and telemetry is off (each slot records
        its own ``forecast.snapshot`` and ``plan.decision``).  A block
        also ends where the table's chunk does, and before a forecast
        row the planner would refuse, which is then decided, and
        refused, as a block of its own.

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
        if tel.enabled or self._table is None or self._injector is not None:
            count = 1
        with tel.tracer.span(
            "controller.cycle",
            machines=current_machines,
            history_len=len(history),
        ) as cycle:
            offset, decision = self._decide_rows(
                history, current_machines, count, current_load, tel
            )
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
        return offset, decision

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

    def _decide_rows(
        self,
        history: Sequence[float],
        current_machines: int,
        count: int,
        current_load: Optional[float],
        tel,
    ) -> Tuple[int, ScaleDecision]:
        with tel.tracer.span(
            "predict.forecast", horizon=self.horizon_intervals
        ) as forecast_span:
            if self._table is not None:
                forecast = self._table.rows(history, count)
            else:
                forecast = np.asarray(
                    self.predictor.predict_horizon(
                        history, self.horizon_intervals
                    ),
                    dtype=float,
                )[None]
            forecast_span.set("predicted_next", float(forecast[0, 0]))
        if self._injector is not None:
            drift = self._injector.forecast_multiplier()
            if drift != 1.0:
                forecast = forecast * drift
        # Row by row the same IEEE products as one slot's Python floats.
        inflated = forecast * self.config.prediction_inflation
        measured_now = float(history[-1]) if current_load is None else current_load
        # Row ``i`` plans from slot ``i``'s measured load.
        rows, horizon = inflated.shape
        loads = np.empty((rows, horizon + 1))
        if rows > 1:
            origin = len(history) - 1
            loads[:, 0] = self._table.series[origin : origin + rows]
        loads[0, 0] = measured_now
        loads[:, 1:] = inflated
        if tel.enabled:
            # Chronicle + accuracy: the forecast is made right after
            # observing slot ``len(history) - 1``, so predicted[i]
            # targets absolute slot ``len(history) + i`` (tau = i + 1).
            # ``time`` is on the history timeline (includes any seeded
            # training window).
            sim_time = float(len(history)) * self.config.interval_seconds
            origin_slot = len(history) - 1
            predictor_name = self.predictor.name
            predicted, inflated_list = forecast[0].tolist(), inflated[0].tolist()
            snap = tel.chronicle.record(
                "forecast.snapshot",
                time=sim_time,
                origin_slot=origin_slot,
                horizon=self.horizon_intervals,
                predictor=predictor_name,
                measured_now=measured_now,
                predicted_next=predicted[0],
                inflated_next=inflated_list[0],
                predicted_peak=float(np.max(inflated[0])),
            )
            self._last_snapshot_id = snap.get("id")
            tel.accuracy.record_forecast(
                origin_slot=origin_slot,
                predicted=predicted,
                inflated=inflated_list,
                predictor=predictor_name,
                snapshot_id=self._last_snapshot_id,
                time=sim_time,
            )

        with tel.tracer.span(
            "plan.dp",
            initial_machines=current_machines,
            current_load=measured_now,
        ) as plan_span:
            plan_span.set("feasible", False)
            # The rows end before the first one the planner refuses, which
            # starts the next block, alone, and raises there.
            best_moves = self.planner.best_moves
            for offset, row in enumerate(
                self.planner.rows(loads, current_machines)
            ):
                try:
                    schedule = best_moves(row)
                except InfeasiblePlanError:
                    schedule = None
                decision = self._act(schedule, row.needed, current_machines)
                if decision.acts:
                    break
            if schedule is not None:
                plan_span.set("feasible", True)
                plan_span.set("final_machines", schedule.final_machines)
        return offset, decision

    def _act(
        self,
        schedule: Optional[MoveSchedule],
        needed: int,
        current_machines: int,
    ) -> ScaleDecision:
        """One slot's decision from its plan (None: infeasible, a flash
        crowd needing ``needed`` machines), carrying the scale-in
        streak from the slot before."""
        if schedule is None:
            # Flash crowd: scale straight to the required size, reactively.
            self._scale_in_streak = 0
            self._last_schedule = None
            target = max(needed, current_machines)
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
            return _STEADY
        if first.start > 0:
            # The first real move starts in the future; wait for it.
            self._scale_in_streak = 0
            return _waiting(first.start)

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
