"""The per-slot predictive decision loop: the test oracle of the block
entry ``PredictiveController.decide_run``.

``decide_cycle`` is the controller's one-slot predict -> plan cycle as
it was before a capacity run decided a block of slots per call: the
slot's forecast row (from the run's ``ForecastTable`` when there is one,
else ``predict_horizon``), times the drift, times the inflation, as
Python floats; one ``PlanRequest`` through ``Planner.best_moves``; then
the emergency, steady / wait and scale-in debounce rules on the
controller's ``_scale_in_streak`` and ``_last_schedule``.
``capacity_run`` is ``CapacitySimulator.run`` as it was: one decision
per slot while no move is in flight, each slot's outputs written in the
loop.  Telemetry is left out: a recording run decides one slot per call
on the block path too, and its records are pinned elsewhere.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.controller import PredictiveController
from repro.core.planner import PlanRequest
from repro.decision import NO_ACTION, ScaleDecision
from repro.elasticity.predictive import PStoreStrategy
from repro.errors import InfeasiblePlanError
from repro.sim.capacity_sim import PEAK_SEED, PEAK_SIGMA, CapacitySimResult
from repro.squall.migrator import Allocation
from repro.telemetry import NULL_TELEMETRY


def decide_cycle(
    controller: PredictiveController,
    history: Sequence[float],
    current_machines: int,
    current_load: Optional[float] = None,
) -> ScaleDecision:
    """One slot's decision, the per-slot way."""
    if controller._table is not None:
        forecast = controller._table.rows(history)[0]
    else:
        forecast = controller.predictor.predict_horizon(
            history, controller.horizon_intervals
        )
    forecast = np.asarray(forecast, dtype=float).tolist()
    if controller._injector is not None:
        drift = controller._injector.forecast_multiplier()
        if drift != 1.0:
            forecast = [value * drift for value in forecast]
    inflation = controller.config.prediction_inflation
    inflated = [value * inflation for value in forecast]
    measured_now = float(history[-1]) if current_load is None else current_load
    try:
        schedule = controller.planner.best_moves(
            PlanRequest(
                predicted_load=tuple(inflated),
                initial_machines=current_machines,
                current_load=measured_now,
            )
        )
    except InfeasiblePlanError as infeasible:
        controller._scale_in_streak = 0
        controller._last_schedule = None
        target = max(infeasible.required_machines, current_machines)
        if controller.config.max_machines:
            target = min(target, controller.config.max_machines)
        if target == current_machines:
            return ScaleDecision(reason="infeasible-but-at-size")
        return ScaleDecision(
            target_machines=target,
            emergency=True,
            rate_multiplier=controller.emergency_rate_multiplier,
            reason="no feasible plan; reactive scale-out",
        )

    controller._last_schedule = schedule
    first = schedule.first_real_move
    if first is None:
        controller._scale_in_streak = 0
        return ScaleDecision(reason="plan is steady")
    if first.start > 0:
        controller._scale_in_streak = 0
        return ScaleDecision(reason=f"first move starts at interval {first.start}")
    if first.is_scale_in:
        controller._scale_in_streak += 1
        confirmations = controller.config.scale_in_confirmations
        if controller._scale_in_streak < confirmations:
            return ScaleDecision(
                reason=(
                    f"scale-in pending confirmation "
                    f"({controller._scale_in_streak}/{confirmations})"
                ),
            )
    controller._scale_in_streak = 0
    return ScaleDecision(
        target_machines=first.after,
        reason="scale-in confirmed" if first.is_scale_in else "scale-out due",
    )


def decide_slot(strategy, slot: int, history, machines: int) -> ScaleDecision:
    """A strategy's decision for one slot: a predictive strategy's through
    :func:`decide_cycle`, any other's own ``decide``."""
    if not isinstance(strategy, PStoreStrategy):
        return strategy.decide(slot, history, machines)
    if not strategy.warmed_up(history):
        return NO_ACTION
    return decide_cycle(strategy.controller, history, machines)


def capacity_run(
    trace, strategy, config, initial_machines: int,
    history_seed: Sequence[float] = (), decide=decide_slot,
) -> CapacitySimResult:
    """``CapacitySimulator.run`` one slot at a time (no telemetry)."""
    load_tps = trace.as_rate_per_second()
    n_slots = load_tps.size
    slot_seconds = trace.slot_seconds
    peak_rng = np.random.default_rng(PEAK_SEED)
    peak_load = load_tps * (
        1.0 + np.abs(peak_rng.normal(0.0, PEAK_SIGMA, n_slots))
    )
    seeded = len(history_seed)
    history = np.concatenate([np.array(history_seed, dtype=float), load_tps])
    strategy.reset(initial_machines, known=history)
    alloc = Allocation(
        config, initial_machines, NULL_TELEMETRY, config.max_machines or None
    )
    out_machines = np.empty(n_slots)
    out_eff_q = np.empty(n_slots)
    out_eff_qhat = np.empty(n_slots)
    out_migrating = np.zeros(n_slots, dtype=bool)
    for slot in range(n_slots):
        index = seeded + slot
        if not alloc.migrating:
            decision = decide(strategy, slot, history[: index + 1], alloc.machines)
            target = alloc.target(decision)
            if target is not None:
                alloc.start(target, decision, slot * slot_seconds, {"slot": slot})
        if alloc.migrating:
            largest, out_machines[slot] = alloc.step_slot(
                slot_seconds, (slot + 1) * slot_seconds
            )
            out_eff_q[slot] = config.q / largest
            out_eff_qhat[slot] = config.q_hat / largest
            out_migrating[slot] = True
        else:
            machines = out_machines[slot] = alloc.machines
            out_eff_q[slot] = config.q * machines
            out_eff_qhat[slot] = config.q_hat * machines
    return CapacitySimResult(
        strategy_name=strategy.name,
        slot_seconds=slot_seconds,
        load_tps=np.asarray(load_tps, dtype=float).copy(),
        peak_load_tps=peak_load,
        machines=out_machines,
        eff_cap_target=out_eff_q,
        eff_cap_max=out_eff_qhat,
        migrating=out_migrating,
        emergencies=alloc.emergencies,
        moves_started=alloc.moves_started,
    )
