"""The online controller: refit, re-plan, reconfigure — and notice when
the model has gone stale.

Per closed interval the controller steps the in-flight move of its
:class:`~repro.squall.migrator.Allocation` across the slot (the same
slot step the batch :class:`~repro.sim.capacity_sim.CapacitySimulator`
takes: effective capacity Eq. 7 sampled at the midpoint), chronicles
violations, and adds
the piece the batch loop lacks entirely:
**error-triggered re-planning**.  The PR-6
:class:`~repro.telemetry.accuracy.AccuracyTracker` keeps rolling
MAPE/bias per (predictor, tau); when the active tau's error crosses the
configured threshold the controller

1. files a ``forecast.accuracy`` chronicle record (parented on the last
   forecast snapshot — the stale model's own evidence),
2. forces an immediate ``predictor.refit_now()`` on the window (an
   :class:`~repro.prediction.online.OnlinePredictor` refits; a batch
   model has nothing to refit on),
3. runs an *unscheduled* predictive re-plan whose ``plan.decision``
   record parents on the accuracy record (so ``pstore explain`` walks
   violation -> decision -> accuracy breach -> stale forecast), and
4. falls back to reactive provisioning until rolling error recovers
   below the hysteresis threshold.

While reactive, the predictive model keeps forecasting in *shadow* so
the tracker scores the refit model on live traffic; recovery flips the
mode back.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from ..config import PStoreConfig
from ..decision import ScaleDecision
from ..elasticity.predictive import PStoreStrategy
from ..elasticity.reactive import ReactiveStrategy
from ..errors import PredictionError, SimulationError
from ..persist import Persisted
from ..squall.migrator import Allocation
from ..telemetry import get_telemetry
from ..telemetry.causal import record_capacity_insufficient, record_interval


@dataclass(frozen=True)
class TriggerSpec:
    """One ``metric:threshold`` clause of ``--error-trigger``."""

    metric: str        # "mape" | "smape" | "bias"
    threshold: float   # fractional (0.3 == 30%)


_TRIGGER_METRICS = {"mape": "mape_pct", "smape": "smape_pct", "bias": "bias_pct"}


def parse_error_trigger(
    text: str, min_pairs: int = 12
) -> Optional["ErrorTrigger"]:
    """Parse ``mape:0.3`` / ``mape:0.3,bias:0.25`` / ``off`` into a
    trigger gated on ``min_pairs`` scored pairs (None for ``off``)."""
    spec = text.strip().lower()
    if spec in ("", "off", "none"):
        return None
    clauses: List[TriggerSpec] = []
    for part in spec.split(","):
        metric, _, value = part.partition(":")
        metric = metric.strip()
        if metric not in _TRIGGER_METRICS:
            raise SimulationError(
                f"unknown error-trigger metric {metric!r} "
                f"(want {'|'.join(sorted(_TRIGGER_METRICS))})"
            )
        try:
            threshold = float(value)
        except ValueError:
            raise SimulationError(
                f"bad error-trigger threshold in {part!r}"
            ) from None
        if threshold <= 0:
            raise SimulationError("error-trigger thresholds must be > 0")
        clauses.append(TriggerSpec(metric=metric, threshold=threshold))
    return ErrorTrigger(tuple(clauses), min_pairs=min_pairs)


#: A tripped trigger recovers once every clause is below this fraction
#: of its threshold (classic hysteresis so the mode doesn't flap on the
#: boundary).
RECOVERY_FRACTION = 0.8


class ErrorTrigger:
    """Threshold + hysteresis over the accuracy tracker's rolling stats.

    ``breach(stats)`` reports the first clause over its threshold;
    ``recovered(stats)`` requires *every* clause below
    :data:`RECOVERY_FRACTION` of its threshold.  Both gate on ``min_pairs``
    scored forecast/actual pairs so a cold window can't fire.
    """

    def __init__(
        self,
        clauses: Sequence[TriggerSpec],
        tau: int = 1,
        min_pairs: int = 12,
    ) -> None:
        if not clauses:
            raise SimulationError("error trigger needs at least one clause")
        self.clauses = tuple(clauses)
        self.tau = int(tau)
        self.min_pairs = int(min_pairs)

    def describe(self) -> str:
        return ",".join(f"{c.metric}:{c.threshold:g}" for c in self.clauses)

    def breach(self, stats: Optional[dict]) -> Optional[dict]:
        if not stats or stats.get("pairs_window", 0) < self.min_pairs:
            return None
        for clause in self.clauses:
            value_pct = stats.get(_TRIGGER_METRICS[clause.metric])
            if value_pct is None:
                continue
            if abs(value_pct) > clause.threshold * 100.0:
                return {
                    "metric": clause.metric,
                    "value_pct": float(value_pct),
                    "threshold_pct": clause.threshold * 100.0,
                }
        return None

    def recovered(self, stats: Optional[dict]) -> bool:
        if not stats or stats.get("pairs_window", 0) < self.min_pairs:
            return False
        for clause in self.clauses:
            value_pct = stats.get(_TRIGGER_METRICS[clause.metric])
            if value_pct is None:
                return False
            limit = clause.threshold * 100.0 * RECOVERY_FRACTION
            if abs(value_pct) > limit:
                return False
        return True


class OnlineController(Persisted):
    """Drives provisioning from a live interval stream.

    One :meth:`on_interval` call per closed planner slot, with the
    measured history up to and including that slot.  Holds its machines
    and the capacity-level move in the same :class:`Allocation` the batch
    capacity simulator steps (``max_machines`` is its pool), so a serve
    run and a batch run over the same trace are directly comparable.
    """

    def __init__(
        self,
        config: PStoreConfig,
        predictor,
        initial_machines: int = 2,
        max_machines: Optional[int] = None,
        trigger: Optional[ErrorTrigger] = None,
        telemetry=None,
    ) -> None:
        if initial_machines < 1:
            raise SimulationError("initial_machines must be >= 1")
        self.config = config
        self.predictor = predictor
        self.trigger = trigger
        self._telemetry = telemetry if telemetry is not None else get_telemetry()
        self._alloc = Allocation(
            config, initial_machines, self._telemetry, max_machines
        )

        self._strategy = self._new_strategy()
        self._reactive = ReactiveStrategy(
            config, max_machines=max_machines, scale_in_patience=6
        )
        self._reactive.reset(initial_machines)
        #: "warmup" (predictor unfitted / history short), "predictive",
        #: or "reactive" (error-triggered fallback).
        self.mode = "predictive" if predictor.is_fitted else "warmup"

        self._fa_record_id: Optional[str] = None

        self.violations = 0
        self.trigger_fires = 0
        self.trigger_recoveries = 0
        self.intervals_seen = 0
        self.last_decision_reason = ""
        self.last_error_stats: Optional[dict] = None

    # ------------------------------------------------------------------
    # Mode machinery
    # ------------------------------------------------------------------

    def _new_strategy(self) -> PStoreStrategy:
        # The planner sizes for the pool this loop really has, so a flash
        # crowd beyond it plans to the cap once, then holds at size.
        config = self.config
        if self._alloc.pool is not None:
            config = replace(config, max_machines=self._alloc.pool)
        return PStoreStrategy(config, self.predictor, telemetry=self._telemetry)

    @property
    def machines(self) -> int:
        return self._alloc.machines

    @property
    def migrating(self) -> bool:
        return self._alloc.migrating

    def error_stats(self) -> Optional[dict]:
        tau = self.trigger.tau if self.trigger is not None else 1
        return self._telemetry.accuracy.errors(self.predictor.name, tau)

    # ------------------------------------------------------------------
    # The per-interval step
    # ------------------------------------------------------------------

    def on_interval(
        self, slot: int, history: Sequence[float], now: float
    ) -> None:
        """Process one closed planner interval.

        ``history`` is the measured tps series up to and including
        ``slot``; ``now`` is the slot's closing boundary in simulated
        seconds.  The monitor has already harvested this slot into the
        accuracy tracker (it does so on interval close), so trigger
        evaluation here sees fully up-to-date rolling stats.
        """
        tel = self._telemetry
        self.intervals_seen += 1
        tps = float(history[-1])
        slot_seconds = self.config.interval_seconds

        # Feed the learner the slot it just closed.
        self.predictor.observe(tps)
        if self.mode == "warmup" and self._strategy.warmed_up(history):
            self.mode = "predictive"

        # Step the in-flight migration across the slot, sampling
        # effective capacity (Eq. 7) at the midpoint like the batch loop.
        alloc = self._alloc
        if alloc.migrating:
            eff_qhat = self.config.q_hat / alloc.step_slot(slot_seconds, now)[0]
        else:
            eff_qhat = self.config.q_hat * alloc.machines

        if tel.enabled:
            tel.metrics.gauge("serve.machines").set(alloc.machines_now)
            tel.metrics.gauge("serve.eff_cap_tps").set(eff_qhat)
            if tps > eff_qhat + 1e-9:
                self.violations += 1
                tel.metrics.counter("serve.capacity_insufficient").inc()
                record_capacity_insufficient(
                    tel.chronicle,
                    time=now,
                    move=alloc.move,
                    slot=slot,
                    load_tps=tps,
                    peak_tps=tps,
                    eff_cap=eff_qhat,
                    machines=alloc.machines_now,
                    migrating=self.migrating,
                )
        elif tps > eff_qhat + 1e-9:
            self.violations += 1

        # Accuracy-triggered mode transitions, then the planning cycle.
        self._check_trigger(history, slot, now)
        if not self.migrating:
            self._plan(history, slot, now)
        if tel.enabled:
            record_interval(
                tel.tracer, now - slot_seconds, now, slot, tps,
                alloc.machines_now, self.migrating,
            )

    # ------------------------------------------------------------------
    # Error-triggered re-planning
    # ------------------------------------------------------------------

    def _check_trigger(
        self, history: Sequence[float], slot: int, now: float
    ) -> None:
        if self.trigger is None:
            return
        stats = self.error_stats()
        self.last_error_stats = stats
        tel = self._telemetry
        if self.mode == "predictive":
            breach = self.trigger.breach(stats)
            if breach is None:
                return
            self.trigger_fires += 1
            fa_id: Optional[str] = None
            if tel.enabled:
                rec = tel.chronicle.record(
                    "forecast.accuracy",
                    time=now,
                    parent=tel.chronicle.last("forecast.snapshot"),
                    predictor=self.predictor.name,
                    tau=self.trigger.tau,
                    metric=breach["metric"],
                    value_pct=breach["value_pct"],
                    threshold_pct=breach["threshold_pct"],
                    pairs=stats.get("pairs_window") if stats else None,
                    action="refit-replan-fallback",
                )
                fa_id = rec.get("id")
                tel.metrics.counter("serve.trigger_fired").inc()
            self._fa_record_id = fa_id
            self.predictor.refit_now()
            # The unscheduled re-plan: run the predictive cycle right now
            # with the (possibly refit) model, parenting its decision on
            # the accuracy record, then drop to reactive while the
            # rolling window stays hot.
            if not self.migrating:
                self._strategy.controller.replan_parent = fa_id
                self._execute_decision(
                    self._strategy.decide(slot, history, self.machines),
                    now,
                    slot,
                )
            self.mode = "reactive"
            self._reactive.reset(self.machines)
        elif self.mode == "reactive":
            # Shadow-forecast so the tracker keeps scoring the refit
            # model on live traffic; without it the window goes stale
            # and recovery could never be observed.
            self._shadow_forecast(history, now)
            if self.trigger.recovered(stats):
                self.trigger_recoveries += 1
                self.mode = "predictive"
                if tel.enabled:
                    tel.chronicle.record(
                        "forecast.accuracy",
                        time=now,
                        parent=self._fa_record_id,
                        predictor=self.predictor.name,
                        tau=self.trigger.tau,
                        action="recovered",
                        mape_pct=stats.get("mape_pct") if stats else None,
                        bias_pct=stats.get("bias_pct") if stats else None,
                    )
                    tel.metrics.counter("serve.trigger_recovered").inc()
                self._fa_record_id = None

    def _shadow_forecast(self, history: Sequence[float], now: float) -> None:
        tel = self._telemetry
        if not tel.enabled or not self.predictor.is_fitted:
            return
        tau = self.trigger.tau if self.trigger is not None else 1
        try:
            forecast = self.predictor.predict_horizon(history, tau)
        except PredictionError:
            return
        inflated = np.asarray(forecast) * self.config.prediction_inflation
        tel.accuracy.record_forecast(
            origin_slot=len(history) - 1,
            predicted=forecast,
            inflated=inflated,
            predictor=self.predictor.name,
            snapshot_id=None,
            time=now,
        )

    # ------------------------------------------------------------------
    # Planning + execution
    # ------------------------------------------------------------------

    def _plan(self, history: Sequence[float], slot: int, now: float) -> None:
        if self.mode == "predictive" and self._strategy.warmed_up(history):
            decision = self._strategy.decide(slot, history, self.machines)
        else:
            decision = self._reactive.decide(slot, history, self.machines)
            if decision.acts:
                decision = self._chronicle_reactive(decision, now)
        self._execute_decision(decision, now, slot)

    def _chronicle_reactive(
        self, decision: ScaleDecision, now: float
    ) -> ScaleDecision:
        """Reactive strategies don't chronicle; file the decision here so
        fallback actions stay walkable (parented on the accuracy breach
        that forced the fallback, when there is one)."""
        tel = self._telemetry
        if not tel.enabled:
            return decision
        kind = "reactive-fallback" if self.mode == "reactive" else "reactive-warmup"
        rec = tel.chronicle.record(
            "plan.decision",
            time=now,
            parent=self._fa_record_id,
            decision_kind=kind,
            reason=decision.reason,
            target_machines=decision.target_machines,
            emergency=decision.emergency,
            rate_multiplier=decision.rate_multiplier,
            machines=self.machines,
        )
        return replace(decision, record_id=rec.get("id"))

    def _execute_decision(
        self, decision: ScaleDecision, now: float, slot: int
    ) -> None:
        target = self._alloc.target(decision)
        if target is not None:
            self._alloc.start(target, decision, now, {"slot": slot})
            self.last_decision_reason = decision.reason

    # ------------------------------------------------------------------
    # Checkpointing (``pstore serve --resume``)
    # ------------------------------------------------------------------

    #: All mutable controller state; the strategies and the in-flight
    #: move are components of their own, the allocation's fields top-level.
    PERSIST = (
        "_alloc.machines", "mode", "violations", "_alloc.moves_started",
        "_alloc.emergencies", "trigger_fires", "trigger_recoveries",
        "intervals_seen", "last_decision_reason", "_fa_record_id",
        "_reactive", "_strategy", "_alloc.move",
    )

    def _revive(self, attr: str) -> Persisted:
        # Only the move is ever None here.
        return self._alloc.blank()

    def _rebuild(self) -> None:
        # A checkpoint from when the strategy was built at the first fit
        # holds ``strategy: null`` if cut during warm-up: the fresh one.
        if self._strategy is None:
            self._strategy = self._new_strategy()

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def shutdown(self, now: float, reason: str = "SIGINT") -> None:
        """Deterministic drain: a partially-applied migration round rolls
        back to its last committed boundary and the abort is chronicled,
        so the exported run directory never shows in-between state."""
        self._alloc.abort(now, reason)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def status(self) -> dict:
        stats = self.last_error_stats
        return {
            "mode": self.mode,
            "machines": self._alloc.machines_now,
            "steady_machines": self._alloc.machines,
            "migrating": self.migrating,
            "intervals": self.intervals_seen,
            "violations": self.violations,
            "moves_started": self._alloc.moves_started,
            "emergencies": self._alloc.emergencies,
            "trigger": self.trigger.describe() if self.trigger else None,
            "trigger_fires": self.trigger_fires,
            "trigger_recoveries": self.trigger_recoveries,
            "error_stats": stats,
            "last_decision": self.last_decision_reason,
            "predictor": self.predictor.name,
            "predictor_fitted": bool(self.predictor.is_fitted),
        }
