"""Fast capacity-level simulation (the Section 8.3 methodology).

"It is not practical to run the B2W benchmark for longer than a few
days ... Therefore, to compare the performance of the different
allocation strategies and different parameter settings over a long
period of time, we use simulation."

The capacity simulator advances one planner slot at a time (5 minutes by
default) and tracks, for any provisioning strategy:

* machines allocated (with just-in-time allocation during moves);
* the system's *effective capacity* while data is in flight (Eq. 7);
* whether the actual load exceeded that capacity ("insufficient
  capacity", the y-axis of Fig. 12);
* total cost in machine-slots (Eq. 1, the x-axis of Fig. 12).

Latency is not modelled here — that is the job of the full simulator in
:mod:`repro.sim.simulator` — which is exactly the trade the paper makes
for its 4.5-month sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..check import invariants
from ..config import PStoreConfig
from ..elasticity.base import ProvisioningStrategy
from ..errors import SimulationError
from ..squall.migrator import Allocation
from ..telemetry import get_telemetry
from ..telemetry.causal import record_capacity_insufficient, record_interval
from ..workload.trace import LoadTrace


@dataclass
class CapacitySimResult:
    """Time series and summary statistics of one capacity-sim run."""

    strategy_name: str
    slot_seconds: float
    load_tps: np.ndarray
    peak_load_tps: np.ndarray    # instantaneous within-slot peak (Sec. 8.3)
    machines: np.ndarray
    eff_cap_target: np.ndarray   # capacity at the target rate Q (planning view)
    eff_cap_max: np.ndarray      # capacity at the max rate Q-hat (violations)
    migrating: np.ndarray
    emergencies: int
    moves_started: int

    @property
    def n_slots(self) -> int:
        return int(self.load_tps.size)

    @property
    def cost_machine_slots(self) -> float:
        """Eq. 1: the summed machine allocation over time."""
        return float(self.machines.sum())

    @property
    def average_machines(self) -> float:
        return float(self.machines.mean())

    @property
    def insufficient_slots(self) -> int:
        """Slots where the *instantaneous* load exceeded the effective
        max-rate capacity.  The paper: "The percentage of time with
        insufficient capacity is not zero because the predictions are at
        the granularity of five minutes, and instantaneous load may have
        spikes."
        """
        return int(np.sum(self.peak_load_tps > self.eff_cap_max + 1e-9))

    @property
    def pct_time_insufficient(self) -> float:
        return 100.0 * self.insufficient_slots / self.n_slots

    def summary(self) -> str:
        return (
            f"{self.strategy_name}: avg machines {self.average_machines:.2f}, "
            f"insufficient {self.pct_time_insufficient:.2f}% of time, "
            f"{self.moves_started} moves ({self.emergencies} emergency)"
        )


#: Within-slot instantaneous peaks exceed the slot average by a random
#: factor ``1 + |N(0, PEAK_SIGMA)|``, drawn from a stream seeded with
#: :data:`PEAK_SEED` (the same peaks for every strategy on a trace).
PEAK_SIGMA = 0.08
PEAK_SEED = 101

#: Slots one :meth:`ProvisioningStrategy.decide_run` call may decide
#: while no move is in flight.  A predictive block pays for the
#: feasibility of every slot in it, and decides only those up to the
#: first that starts a move, so a longer block wastes more.
DECISION_BLOCK = 32


class CapacitySimulator:
    """Drives one strategy through a load trace at slot granularity."""

    def __init__(
        self,
        config: PStoreConfig,
        initial_machines: int,
        history_seed: Sequence[float] = (),
        telemetry=None,
    ):
        if initial_machines < 1:
            raise SimulationError("initial_machines must be >= 1")
        self.config = config
        self.initial_machines = initial_machines
        self._telemetry = telemetry if telemetry is not None else get_telemetry()
        #: Measured-load history handed to strategies; benches seed it
        #: with the predictor's training window so SPAR has context from
        #: slot zero.  Each run appends its slots.
        self.history: np.ndarray = np.array(history_seed, dtype=float)

    def run(
        self,
        trace: LoadTrace,
        strategy: ProvisioningStrategy,
    ) -> CapacitySimResult:
        """Simulate ``strategy`` over ``trace``, one slot at a time."""
        config = self.config
        if abs(trace.slot_seconds - config.interval_seconds) > 1e-9:
            raise SimulationError(
                f"trace slots ({trace.slot_seconds}s) must match the planner "
                f"interval ({config.interval_seconds}s)"
            )
        load_tps = trace.as_rate_per_second()
        n_slots = load_tps.size
        slot_seconds = trace.slot_seconds
        peak_rng = np.random.default_rng(PEAK_SEED)
        peak_load = load_tps * (
            1.0 + np.abs(peak_rng.normal(0.0, PEAK_SIGMA, n_slots))
        )

        # One buffer for seed + slots; strategies see a view of what has
        # been measured so far, so nothing is copied per decision.  The
        # whole of it is known now, and the strategy is told so.
        seeded = self.history.size
        history = np.concatenate([self.history, load_tps])
        strategy.reset(self.initial_machines, known=history)
        self.history = history
        tel = self._telemetry
        recording = tel.enabled
        alloc = Allocation(
            config, self.initial_machines, tel, config.max_machines or None
        )

        out_machines = np.empty(n_slots)
        out_eff_q = np.empty(n_slots)
        out_eff_qhat = np.empty(n_slots)
        out_migrating = np.zeros(n_slots, dtype=bool)

        slot = 0
        while slot < n_slots:
            # history may be pre-seeded with the training window;
            # forecasts key on its index, so telemetry does too.
            if recording:
                harvest = tel.accuracy.observe(
                    seeded + slot, float(load_tps[slot]),
                    time=(slot + 1) * slot_seconds,
                )
                scored = harvest[0] if harvest else {}

            if not alloc.migrating:
                # A block of slots at this size; each slot writes its
                # own records, so a recording run decides one at a time.
                offset, decision = strategy.decide_run(
                    slot, history[: seeded + slot + 1], alloc.machines,
                    1 if recording else min(DECISION_BLOCK, n_slots - slot),
                )
                target = alloc.target(decision)
                # The slots that start no move hold the allocation (a
                # recording run's one slot is written below).
                held = offset + (target is None and not recording)
                if held:
                    machines = alloc.machines
                    out_machines[slot : slot + held] = machines
                    out_eff_q[slot : slot + held] = config.q * machines
                    out_eff_qhat[slot : slot + held] = config.q_hat * machines
                    slot += held
                    if target is None:
                        continue
                if target is not None:
                    alloc.start(target, decision, slot * slot_seconds, {"slot": slot})

            if alloc.migrating:
                # State during this slot: sampled at the slot midpoint.
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

            if recording:
                record_interval(
                    tel.tracer, slot * slot_seconds, (slot + 1) * slot_seconds,
                    seeded + slot, float(load_tps[slot]),
                    int(out_machines[slot]), bool(out_migrating[slot]),
                )
                self._record_slot(
                    tel,
                    float(load_tps[slot]),
                    int(out_machines[slot]),
                    float(out_eff_qhat[slot]),
                )
                if peak_load[slot] > out_eff_qhat[slot] + 1e-9:
                    record_capacity_insufficient(
                        tel.chronicle,
                        time=(slot + 1) * slot_seconds,
                        move=alloc.move,
                        scored=scored,
                        slot=slot,
                        peak_tps=float(peak_load[slot]),
                        load_tps=float(load_tps[slot]),
                        eff_cap=float(out_eff_qhat[slot]),
                        machines=int(out_machines[slot]),
                        migrating=bool(out_migrating[slot]),
                        predicted_tps=scored.get("predicted"),
                        inflated_tps=scored.get("inflated"),
                        predictor=scored.get("predictor"),
                    )
            slot += 1

        if recording:
            tel.metrics.gauge("sim.slots").set(n_slots)

        if invariants.enabled(invariants.CHEAP):
            invariants.check_capacity_accounting(
                out_machines, out_eff_q, out_eff_qhat, out_migrating,
                config.q, config.q_hat, "CapacitySimulator.run",
            )

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

    def _record_slot(
        self,
        tel,
        load_tps: float,
        machines: int,
        eff_cap_max: float,
    ) -> None:
        """Publish one slot's allocation gauge and analytic latency.

        The capacity simulator deliberately skips queueing dynamics, so
        the latency quantiles here are the *steady-state M/M/1 estimate*
        implied by the slot's utilization — a telemetry-grade proxy for
        dashboards, not the full engine's measurement (Sec. 8.3 trades
        exactly this fidelity for 4.5-month sweeps)."""
        from ..hstore.engine import DEFAULT_MU_PARTITION

        tel.metrics.gauge("sim.machines").set(machines)
        # Per-partition arrival rate implied by the effective capacity:
        # at load == eff_cap_max every partition runs at Q_hat's share of
        # its service rate; clamp headroom like the engine does.
        mu = DEFAULT_MU_PARTITION
        utilization = load_tps / eff_cap_max if eff_cap_max > 0 else 1.0
        lam = min(utilization, 1.0) * 0.80 * mu
        headroom = max(mu - lam, 0.02 * mu)
        for name, pct in (
            ("sim.latency_p50_ms", 0.50),
            ("sim.latency_p95_ms", 0.95),
            ("sim.latency_p99_ms", 0.99),
        ):
            sojourn_ms = -math.log(1.0 - pct) / headroom * 1000.0
            tel.metrics.histogram(name).observe(sojourn_ms)


def run_capacity_simulation(
    trace: LoadTrace,
    strategy: ProvisioningStrategy,
    config: PStoreConfig,
    initial_machines: int,
    history_seed: Sequence[float] = (),
    telemetry=None,
) -> CapacitySimResult:
    """Convenience wrapper: one strategy, one trace, one result."""
    simulator = CapacitySimulator(
        config=config,
        initial_machines=initial_machines,
        history_seed=history_seed,
        telemetry=telemetry,
    )
    return simulator.run(trace, strategy)
