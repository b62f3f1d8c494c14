"""Full elastic-DBMS simulation: load, latency, and live migration.

:class:`ElasticDbSimulator` reproduces the paper's benchmark experiments
(Figures 7-11): it ticks second by second, feeding the offered load into
the calibrated per-partition queueing engine, consulting the provisioning
strategy once per planner interval, and executing reconfigurations with
the three-case parallel schedule — including just-in-time machine
allocation, the shifting data distribution (which sets each node's load
share), and the CPU interference of chunked data movement.

Outputs are per-second latency percentiles, throughput, and machine
allocation — the same series the paper plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..check import invariants
from ..config import DEFAULT_CHUNK_KB, PStoreConfig
from ..elasticity.base import ProvisioningStrategy
from ..errors import SimulationError
from ..faults.injector import injector_from_config
from ..hstore.engine import (
    MigrationInterference,
    QueueingEngine,
)
from ..hstore.latency import PercentileSeries
from ..squall.migrator import Allocation, Reconfiguration
from ..telemetry import get_telemetry
from ..telemetry.causal import blame, record_interval


@dataclass
class BlockRequest:
    """The engine ticks of one planner interval, for the driver to
    advance in one batch.

    Yielded by :meth:`ElasticDbSimulator.drive` once the control loop
    has run over ticks ``start`` to ``end`` (exclusive; indices into the
    run's offered-load array); the driver answers with the
    :class:`~repro.hstore.engine.BlockStats` of ``engine.step_block(1.0,
    offered, shares, interference, capacity)``.  ``shares``, the two
    arrays of ``interference`` and ``capacity`` hold one row per tick;
    the last two are None when no tick of the block had a move in flight
    / a slowed node, and a block steady throughout has one shares row of
    ``n_partitions`` entries, which stands for every tick.
    """

    start: int
    end: int
    shares: np.ndarray
    offered: np.ndarray
    interference: Optional[MigrationInterference] = None
    capacity: Optional[np.ndarray] = None

    @property
    def ticks(self) -> int:
        return self.end - self.start


@dataclass
class SimulationResult:
    """Per-second series plus summary statistics of one benchmark run."""

    strategy_name: str
    latency: PercentileSeries
    offered_tps: np.ndarray
    completed_tps: np.ndarray
    machines: np.ndarray
    migrating: np.ndarray
    emergencies: int
    moves_started: int
    sla_ms: float

    @property
    def seconds(self) -> int:
        return int(self.offered_tps.size)

    @property
    def average_machines(self) -> float:
        return float(self.machines.mean())

    def sla_violations(self) -> Dict[float, int]:
        """Seconds above the SLA per tracked percentile (Table 2)."""
        return self.latency.violation_summary(self.sla_ms)

    def summary(self) -> str:
        violations = self.sla_violations()
        parts = ", ".join(
            f"p{int(q)}={violations[q]}" for q in sorted(violations)
        )
        return (
            f"{self.strategy_name}: SLA violations [{parts}] "
            f"avg machines {self.average_machines:.2f} "
            f"({self.moves_started} moves, {self.emergencies} emergency)"
        )


class _Run:
    """Everything one :meth:`ElasticDbSimulator.drive` pass mutates,
    shared by its phase methods."""

    def __init__(self, strategy, offered, interval, alloc, seed):
        n = offered.size
        self.strategy = strategy
        self.offered = offered
        self.interval = interval              # planner interval, in ticks
        self.t = 0
        self.active = list(range(alloc.machines))  # machines holding data
        self.alloc: Allocation = alloc  # pool: less one per dead machine
        # Per-interval mean load: the seed, then one slot per closed
        # interval, in one buffer; ``history`` is the filled prefix.
        self._history = np.empty(len(seed) + n // interval)
        self._history[: len(seed)] = seed
        self.history = self._history[: len(seed)]
        self.out_machines = np.empty(n)
        self.out_migrating = np.zeros(n, dtype=bool)
        self.out_completed = np.empty(n)
        self.p50 = np.empty(n)
        self.p95 = np.empty(n)
        self.p99 = np.empty(n)
        #: The dead machines.
        self.crashed: List[int] = []
        # Per-interval accounting feeding the chronicle's sla.violation
        # records: seconds above the SLA, worst p99, and how many of the
        # interval's seconds were spent migrating / under fault activity.
        self.iv_viol = 0
        self.iv_viol_p99 = 0.0
        self.iv_migr = 0
        self.iv_fault = 0

    def close_slot(self, mean_tps: float) -> None:
        """Append one closed interval's mean load to ``history``."""
        size = self.history.size
        self._history[size] = mean_tps
        self.history = self._history[: size + 1]


class ElasticDbSimulator:
    """Second-granularity elastic DBMS simulation.

    Parameters
    ----------
    config:
        model parameters; ``interval_seconds`` sets how often the
        strategy is consulted.
    max_machines:
        machines physically available (the paper's cluster has 10).
    initial_machines:
        active machines at t=0.
    chunk_kb:
        migration chunk size (Fig. 8 sweeps this).
    seed, engine_kwargs:
        forwarded to the queueing engine (skew/noise processes).
    injector:
        optional :class:`~repro.faults.FaultInjector`; defaults to the
        one described by ``config.faults`` (None when disabled, keeping
        fault-free runs bit-identical to pre-chaos builds).  A run hands
        it to its allocation and, through ``reset``, to the strategy.

    The engine advances one planner interval at a time with
    :meth:`QueueingEngine.step_block`, after the control loop has run
    over the interval (see :meth:`drive`).
    """

    def __init__(
        self,
        config: PStoreConfig,
        max_machines: int = 10,
        initial_machines: int = 4,
        chunk_kb: float = DEFAULT_CHUNK_KB,
        seed: int = 1,
        engine_kwargs: Optional[dict] = None,
        telemetry=None,
        injector=None,
    ):
        if not 1 <= initial_machines <= max_machines:
            raise SimulationError(
                f"need 1 <= initial_machines <= max_machines "
                f"(got {initial_machines}, {max_machines})"
            )
        self.config = config
        self.max_machines = max_machines
        self.initial_machines = initial_machines
        self.chunk_kb = chunk_kb
        self._telemetry = telemetry if telemetry is not None else get_telemetry()
        self._injector = injector or injector_from_config(config, telemetry)
        p = config.partitions_per_node
        self.engine = QueueingEngine(
            n_partitions=max_machines * p,
            seed=seed,
            telemetry=self._telemetry,
            **(engine_kwargs or {}),
        )

    @property
    def injector(self):
        """The attached fault injector (None on fault-free runs)."""
        return self._injector

    # ------------------------------------------------------------------

    def run(
        self,
        offered_tps: Sequence[float],
        strategy: ProvisioningStrategy,
        history_seed_tps: Sequence[float] = (),
    ) -> SimulationResult:
        """Simulate ``len(offered_tps)`` seconds of the benchmark.

        ``offered_tps[t]`` is the aggregate offered load during second
        ``t``.  ``history_seed_tps`` pre-populates the strategy's
        per-interval load history (one value per planner interval) so
        predictive strategies start with enough context.

        Implemented as a pump over :meth:`drive`: every
        :class:`BlockRequest` the generator yields is answered with this
        simulator's own engine — the serial execution the tensor driver
        (:mod:`repro.sim.tensor`) must match bit-for-bit.
        """
        gen = self.drive(offered_tps, strategy, history_seed_tps)
        block = None
        while True:
            try:
                request = gen.send(block)
            except StopIteration as stop:
                return stop.value
            block = self.engine.step_block(
                1.0, request.offered, request.shares,
                request.interference, request.capacity,
            )

    def drive(
        self,
        offered_tps: Sequence[float],
        strategy: ProvisioningStrategy,
        history_seed_tps: Sequence[float] = (),
    ):
        """The simulation as a resumable block-request generator.

        Yields one :class:`BlockRequest` per planner interval and expects
        ``send(block_stats)`` with the engine's answer.  Nothing the
        engine reports feeds back into the control loop inside an
        interval — strategies read offered-load means, moves and faults
        run on the clock — so :meth:`_control` runs a whole interval
        ahead of the engine: (inject faults ->) close the interval ->
        plan -> advance the move in flight by the block's seconds and
        build their shares and interference rows from the state each
        started in, and the engine then takes the interval in one call.
        A block starts *at* a planner-boundary tick and ends before the
        next one, because closing an interval publishes the SLA
        violations of the seconds before it.  Returns the
        :class:`SimulationResult` via ``StopIteration.value``.
        """
        run = self._begin_run(offered_tps, strategy, history_seed_tps)
        n = run.offered.size
        engine_time_start = self.engine.time
        while run.t < n:
            start = run.t
            to_boundary = run.interval - (start + 1) % run.interval
            block = yield self._control(run, min(n, start + to_boundary))
            self._record_block(run, start, block)

        if invariants.enabled(invariants.CHEAP):
            # Every tick must pass through the engine exactly once — a
            # block dropping or double-counting ticks shows up here.
            invariants.check_time_accounting(
                self.engine.time - engine_time_start, float(n),
                "ElasticDbSimulator.run",
            )
        latency = PercentileSeries(
            seconds=np.arange(n),
            percentiles={50.0: run.p50, 95.0: run.p95, 99.0: run.p99},
            throughput=run.out_completed,
        )
        return SimulationResult(
            strategy_name=strategy.name,
            latency=latency,
            offered_tps=run.offered.copy(),
            completed_tps=run.out_completed,
            machines=run.out_machines,
            migrating=run.out_migrating,
            emergencies=run.alloc.emergencies,
            moves_started=run.alloc.moves_started,
            sla_ms=self.config.sla_latency_ms,
        )

    # ------------------------------------------------------------------
    # The phases of one drive() pass
    # ------------------------------------------------------------------

    def _begin_run(self, offered_tps, strategy, history_seed_tps) -> _Run:
        offered = np.asarray(offered_tps, dtype=float)
        if offered.ndim != 1 or offered.size == 0:
            raise SimulationError("offered_tps must be a non-empty 1-D array")
        if np.any(offered < 0):
            raise SimulationError("offered load cannot be negative")
        interval = int(round(self.config.interval_seconds))
        if interval < 1:
            raise SimulationError("interval_seconds must be >= 1 second")
        strategy.reset(self.initial_machines, injector=self._injector)
        alloc = Allocation(
            self.config, self.initial_machines, self._telemetry,
            self.max_machines, self._injector,
        )
        return _Run(
            strategy, offered, interval, alloc,
            np.asarray(history_seed_tps, dtype=float),
        )

    def _inject_faults(self, run: _Run) -> None:
        """Fire due faults; a crash aborts the move in flight and takes
        its victim out of the active set."""
        now = float(run.t)
        self._injector.advance(now)

        def abort_move(victim: int) -> None:
            move = run.alloc.move
            if move is None:
                return
            run.alloc.abort(now, "node crash")
            # Only machines that hold committed rounds stay: a newcomer
            # nothing reached goes back to the pool, a retiring machine
            # already drained is gone.
            migration = move.migration
            holding = migration.physical_nodes({
                logical
                for logical, fraction in enumerate(migration.data_fractions())
                if fraction > 1e-12
            })
            run.active = [m for m in run.active if m in holding]

        def drop_node(victim: int) -> int:
            if victim in run.active:
                run.active.remove(victim)
            run.crashed.append(victim)
            run.alloc.pool -= 1
            run.alloc.machines = len(run.active)
            return run.alloc.machines

        self._injector.handle_crashes(
            now, lambda: run.active, abort_move, drop_node
        )

    def _steady_shares(self, run: _Run) -> np.ndarray:
        """Per-partition load shares with no move in flight: uniform
        over the active machines."""
        p, machines = self.config.partitions_per_node, run.alloc.machines
        shares = np.zeros(self.max_machines * p)
        shares.reshape(self.max_machines, p)[run.active] = 1.0 / (machines * p)
        return shares

    def _record_block(self, run: _Run, start: int, stats) -> None:
        """Store the engine's answer (a :class:`BlockStats`) for ticks
        ``start`` to ``run.t``."""
        ticks = slice(start, run.t)
        run.out_completed[ticks] = stats.completed_tps
        run.p50[ticks] = stats.p50_ms
        run.p95[ticks] = stats.p95_ms
        run.p99[ticks] = stats.p99_ms
        if not self._telemetry.enabled:
            return
        metrics = self._telemetry.metrics
        metrics.histogram("sim.latency_p50_ms").observe_many(stats.p50_ms)
        metrics.histogram("sim.latency_p95_ms").observe_many(stats.p95_ms)
        metrics.histogram("sim.latency_p99_ms").observe_many(stats.p99_ms)
        violated = stats.p99_ms[stats.p99_ms > self.config.sla_latency_ms]
        if violated.size:
            metrics.counter("sim.sla_violation_seconds").inc(float(violated.size))
            run.iv_viol += int(violated.size)
            run.iv_viol_p99 = max(run.iv_viol_p99, float(violated.max()))

    def _close_interval(self, run: _Run) -> bool:
        """At a planner boundary — the last second of an interval —
        publish the interval (mean load, allocation, forecast accuracy,
        SLA violations) and return True."""
        close = run.t + 1
        if close % run.interval:
            return False
        mean_tps = float(np.mean(run.offered[close - run.interval : close]))
        run.close_slot(mean_tps)
        tel = self._telemetry
        if not tel.enabled:
            return True
        now = float(run.t + 1)
        slot = len(run.history) - 1
        record_interval(
            tel.tracer, now - run.interval, now, slot, mean_tps,
            int(run.alloc.machines), run.alloc.migrating,
        )
        # Close the forecast-accuracy loop for this slot and, if the
        # interval had SLA violations, chronicle them under their most
        # plausible cause.
        harvest = tel.accuracy.observe(slot, mean_tps, time=now)
        scored = harvest[0] if harvest else {}
        if run.iv_viol:
            tel.chronicle.record(
                "sla.violation",
                time=now,
                parent=blame(
                    tel.chronicle,
                    fault=run.iv_fault,
                    move=run.alloc.move if run.iv_migr else None,
                    scored=scored,
                ),
                slot=slot,
                seconds=run.iv_viol,
                p99_max_ms=run.iv_viol_p99,
                measured_tps=mean_tps,
                machines=int(run.alloc.machines),
                migrating_seconds=run.iv_migr,
                fault_seconds=run.iv_fault,
                predicted_tps=scored.get("predicted"),
                inflated_tps=scored.get("inflated"),
            )
        run.iv_viol = 0
        run.iv_viol_p99 = 0.0
        run.iv_migr = 0
        run.iv_fault = 0
        return True

    def _plan(self, run: _Run) -> None:
        """At a planner boundary with no move in flight, consult the
        strategy and start the move it asks for."""
        if not run.alloc.migrating:
            self._start_move(run, run.strategy.decide(
                len(run.history) - 1, run.history, run.alloc.machines
            ))
        run.alloc.confirm(float(run.t + 1))

    def _start_move(self, run: _Run, decision) -> None:
        """Begin the move ``decision`` asks for, if any is left to make.

        Scale-out activates the lowest inactive machine indices; scale-in
        retires the highest active ones (drained just-in-time by the
        reversed schedule).  Crashed machines are never re-activated.
        """
        target = run.alloc.target(decision)
        if target is None:
            return
        active, before = run.active, run.alloc.machines
        nodes = sorted(active)
        newcomers: List[int] = []
        if target > before:
            newcomers = [
                m for m in range(self.max_machines)
                if m not in active and m not in run.crashed
            ][: target - before]
            active.extend(newcomers)
        run.alloc.start(
            target, decision, float(run.t + 1), {"slot": len(run.history) - 1},
            chunk_kb=self.chunk_kb, nodes=nodes, newcomers=newcomers,
        )

    def _control(self, run: _Run, end: int) -> BlockRequest:
        """Run the control loop over ticks ``run.t`` to ``end`` and
        return what the engine needs to follow: each second's shares (the
        data distribution), migration interference and capacity.

        A block starts at a planner boundary, so only its first tick may
        close an interval and plan.  A fault-free block with no move in
        flight hands the engine its one shares row.  Else the block goes
        in slices that each start by injecting faults and end at the
        allocation's :meth:`~repro.squall.migrator.Allocation.next_slice`
        rounded up to a whole second (at the block's end, without an
        injector).  A move advances by a slice's whole seconds
        (:meth:`~repro.squall.migrator.ActiveMigration.advance_seconds`),
        under an injector all but the last, which, like every second of
        a wedged slice, goes by the allocation's ``spend``: there it may
        land a round, re-send or finish.
        """
        start, injector = run.t, self._injector
        if injector is not None:
            self._inject_faults(run)
        if self._close_interval(run):
            self._plan(run)
        if run.alloc.move is None and injector is None:
            run.out_machines[start:end] = run.alloc.machines
            run.t = end
            return BlockRequest(
                start, end, self._steady_shares(run), run.offered[start:end]
            )
        p = self.config.partitions_per_node
        shape = (end - start, self.max_machines * p)
        shares = np.empty(shape)
        rows = capacity = None
        while run.t < end:
            t, stop, stall, faulty = run.t, end, None, False
            if injector is not None:
                if t > start:
                    self._inject_faults(run)
                until, stall = run.alloc.next_slice(float(t), float(end))
                stop = max(t + 1, math.ceil(until - 1e-9))
                slowdown = injector.any_slowdown_active
                faulty = slowdown or injector.recovering
                if slowdown:
                    if capacity is None:
                        capacity = np.ones(shape)
                    capacity[t - start:stop - start] = np.repeat(
                        injector.capacity_multipliers(self.max_machines, float(t)), p
                    )
            move = run.alloc.move
            if move is None:
                shares[t - start:stop - start] = self._steady_shares(run)
                run.out_machines[t:stop] = run.alloc.machines
                run.iv_fault += faulty * (stop - t)
                run.t = stop
                continue
            if rows is None:
                rows = MigrationInterference.none(shape)
            wedged = stall is not None or move.resend_seconds > 1e-9
            last = stop - (injector is not None)
            if not wedged and last > t:
                seconds = move.migration.advance_seconds(last - t)
                self._move_rows(run, move, seconds, shares, rows, start)
            if injector is not None:
                now = run.t
                seconds = move.migration.state(stop - now)
                self._move_rows(run, move, seconds, shares, rows, start)
                run.alloc.spend(float(now), float(stop))
            run.iv_fault += (faulty or wedged) * (run.t - t)
            if move.finished:
                self._settle(run, float(run.t))
        return BlockRequest(
            start, end, shares, run.offered[start:end], rows, capacity
        )

    def _move_rows(
        self, run: _Run, move: Reconfiguration, seconds, shares: np.ndarray,
        rows: MigrationInterference, start: int,
    ) -> None:
        """Write the rows (of the block from tick ``start``) of the
        seconds from ``run.t`` a move spends in flight, from the state
        each starts in (a :class:`~repro.squall.migrator.MigrationSeconds`),
        and move ``run.t`` past them: each logical machine's data fraction
        spread evenly over its physical machine's partitions, and the
        interference of each round's migrating machines."""
        migration = move.migration
        p = self.config.partitions_per_node
        ticks, logical = seconds.fractions.shape
        i = run.t - start
        node_map = migration.node_map or {}
        physical = [node_map.get(machine, machine) for machine in range(logical)]
        by_machine = shares[i:i + ticks].reshape(ticks, self.max_machines, p)
        by_machine[...] = 0.0
        by_machine[:, physical, :] = (seconds.fractions / p)[:, :, None]
        # The interference of a round, once per run of its seconds.
        rounds = seconds.rounds
        edges = [0, *(np.flatnonzero(rounds[1:] != rounds[:-1]) + 1), ticks]
        for lo, hi in zip(edges, edges[1:]):
            machines = MigrationInterference.for_rate(
                self.max_machines,
                migration.physical_nodes(
                    migration.migrating_machines(int(rounds[lo]))
                ),
                move.rate_kbps,
                self.chunk_kb,
            )
            rows.busy_fraction[i + lo:i + hi] = np.repeat(machines.busy_fraction, p)
            rows.stall_seconds[i + lo:i + hi] = np.repeat(machines.stall_seconds, p)
        run.out_machines[run.t:run.t + ticks] = seconds.allocation
        run.out_migrating[run.t:run.t + ticks] = True
        run.iv_migr += ticks
        run.t += ticks

    @staticmethod
    def _settle(run: _Run, now: float) -> None:
        """Every round has landed by ``now``: the drained machines hold
        nothing any more."""
        for machine in run.alloc.move.retiring_nodes:
            run.active.remove(machine)
        run.alloc.settle(now)
