"""The scalar per-second queueing engine and simulator loop, as oracles.

``QueueingEngine.step_block`` advances a whole planner interval of ticks
with batched RNG draws and array math, and ``QueueingEngine.step`` is a
block of one.  The per-tick code they replaced lives here, unchanged but
for ``self`` becoming an ``engine`` argument:

* :func:`scalar_step` advances one tick of an engine's state with
  per-tick skew updates (:func:`advance_skew`) and per-tick latency
  sampling (:func:`sample_latencies`, a ``searchsorted`` categorical draw
  and the engine's shared percentile kernel);
* :func:`run_scalar` runs a simulator by answering every
  :class:`~repro.sim.simulator.BlockRequest` of ``drive`` one tick at a
  time with :func:`scalar_step`;
* :func:`record_latency_ticks` is the simulator's per-tick latency
  metering, which it now does once per block;
* :func:`per_second_control` is the simulator's control loop as it was
  before a move advanced a block at a time: every second builds its
  rows from the move's state and advances the move by ``advance(1.0)``,
  and a steady block is ``(ticks, n)`` rows; :func:`drive_requests`
  records the :class:`~repro.sim.simulator.BlockRequest` of either loop.

The block kernel is bit-identical to both, which ``test_fast_path`` and
``test_tensor`` assert field by field; ``test_block_control`` holds the
simulator's requests to the per-second rows.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.check import invariants
from repro.errors import SimulationError
from repro.hstore.engine import (
    BlockStats,
    MigrationInterference,
    QueueingEngine,
    TickStats,
)
from repro.sim.simulator import BlockRequest


def advance_skew(engine: QueueingEngine, dt: float):
    """Update hot-key episodes; returns (wobble, extra_fractions).

    ``wobble`` multiplies each partition's base share; ``extra``
    is the fraction of *total* load diverted to each hot partition.
    """
    n = engine.n_partitions
    engine._hot_remaining = np.maximum(0.0, engine._hot_remaining - dt)
    engine._hot_extra[engine._hot_remaining <= 0.0] = 0.0
    # New episode?  Poisson with the configured rate per partition.
    if engine._episode_rng.random() < engine.hot_episode_rate * n * dt:
        victim, duration, extra = engine._episode_details()
        engine._hot_remaining[victim] = duration
        engine._hot_extra[victim] = extra
    wobble = np.exp(engine._wobble_rng.normal(0.0, engine.skew_sigma, n))
    return wobble, engine._hot_extra.copy()


def scalar_step(
    engine: QueueingEngine,
    dt: float,
    offered_tps: float,
    shares: np.ndarray,
    interference: Optional[MigrationInterference] = None,
    capacity_multipliers: Optional[np.ndarray] = None,
) -> TickStats:
    """Advance one tick of length ``dt`` seconds.

    ``shares`` is the per-partition fraction of the offered load
    (length ``n_partitions``; it is normalised internally so callers
    may pass raw data fractions).  ``capacity_multipliers`` scales
    each partition's service rate (straggler injection); None means
    every partition runs at full speed.
    """
    if dt <= 0:
        raise SimulationError("dt must be positive")
    if offered_tps < 0:
        raise SimulationError("offered load cannot be negative")
    shares = np.asarray(shares, dtype=float)
    if shares.size != engine.n_partitions:
        raise SimulationError(
            f"shares has {shares.size} entries for {engine.n_partitions} partitions"
        )
    if np.any(shares < 0):
        raise SimulationError("shares must be non-negative")
    total_share = shares.sum()
    if total_share <= 0:
        raise SimulationError("at least one partition must receive load")
    shares = shares / total_share
    if interference is None:
        interference = MigrationInterference.none(engine.n_partitions)

    wobble, extra = advance_skew(engine, dt)
    weighted = shares * wobble
    weighted /= weighted.sum()
    # Hot keys divert a fraction of *total* traffic to their
    # partitions; the remainder follows the (wobbled) data shares.
    total_extra = min(0.5, float(extra.sum()))
    arrivals = offered_tps * (
        weighted * (1.0 - total_extra) + extra
    )                                                       # txn/s per partition
    mu_eff = engine.mu_partition * (1.0 - interference.busy_fraction)
    if capacity_multipliers is not None:
        caps = np.asarray(capacity_multipliers, dtype=float)
        if caps.size != engine.n_partitions:
            raise SimulationError(
                f"capacity_multipliers has {caps.size} entries for "
                f"{engine.n_partitions} partitions"
            )
        if np.any(caps <= 0):
            raise SimulationError("capacity multipliers must be positive")
        mu_eff = mu_eff * caps
    mu_eff = np.maximum(mu_eff, 1e-6)

    # Backlog dynamics: demand this tick is queued work plus arrivals;
    # capacity is mu_eff * dt.
    capacity = mu_eff * dt
    demand = engine._backlog + arrivals * dt
    completed = np.minimum(demand, capacity)
    new_backlog = demand - completed
    backlog_mid = 0.5 * (engine._backlog + new_backlog)
    engine._backlog = new_backlog
    engine._time += dt
    if invariants.enabled(invariants.CHEAP):
        invariants.check_nonnegative_backlog(
            new_backlog, "QueueingEngine.step", time=engine._time
        )

    stats = sample_latencies(
        engine, arrivals, mu_eff, backlog_mid, completed, interference
    )
    utilization = float(np.max(arrivals / mu_eff))
    tick = TickStats(
        time=engine._time,
        p50_ms=stats[0],
        p95_ms=stats[1],
        p99_ms=stats[2],
        completed_tps=float(completed.sum() / dt),
        offered_tps=offered_tps,
        max_utilization=utilization,
        backlog=float(new_backlog.sum()),
    )
    tel = engine._telemetry
    if tel.enabled:
        metrics = tel.metrics
        metrics.histogram("engine.tick_p50_ms").observe(tick.p50_ms)
        metrics.histogram("engine.tick_p99_ms").observe(tick.p99_ms)
        metrics.gauge("engine.backlog_txns").set(tick.backlog)
        metrics.gauge("engine.max_utilization").set(tick.max_utilization)
        metrics.counter("engine.completed_txns").inc(tick.completed_tps * dt)
    return tick


def sample_latencies(
    engine: QueueingEngine,
    arrivals: np.ndarray,
    mu_eff: np.ndarray,
    backlog_mid: np.ndarray,
    completed: np.ndarray,
    interference: MigrationInterference,
):
    """Monte-Carlo latency percentiles across the partition mixture.

    Draw layout per tick (when any work completed): one ``(3, S)``
    uniform batch — partition choice, stall hit, stall position — and
    one ``(2, S)`` exponential batch — stationary, overloaded.  Ticks
    with no completed work consume nothing.
    """
    total_completed = completed.sum()
    if total_completed <= 0:
        return 0.0, 0.0, 0.0
    n_samples = engine.samples_per_tick
    uniforms = engine._sample_u_rng.random((3, n_samples))
    exponentials = engine._sample_e_rng.standard_exponential((2, n_samples))

    weights = completed / total_completed
    cdf = np.cumsum(weights)
    partitions = np.minimum(
        np.searchsorted(cdf, uniforms[0] * cdf[-1], side="right"),
        engine.n_partitions - 1,
    )
    mu = mu_eff[partitions]
    lam = arrivals[partitions]
    backlog = backlog_mid[partitions]

    # Stationary M/M/1 sojourn when under-loaded; backlog-dominated
    # wait when the queue is growing.
    headroom = np.maximum(mu - lam, 0.02 * mu)
    stationary = exponentials[0] / headroom
    overloaded = backlog / mu + exponentials[1] / mu
    latency = np.where(backlog > 0.5, overloaded, stationary)

    # Migration stalls: a txn arriving while its partition processes a
    # chunk waits out the remainder of the chunk.
    busy = interference.busy_fraction[partitions]
    stall = interference.stall_seconds[partitions]
    hit = uniforms[1] < busy
    latency = latency + hit * uniforms[2] * stall

    ms = latency * 1000.0
    quantiles = engine._percentiles_50_95_99(ms)
    return (
        float(quantiles[0]), float(quantiles[1]), float(quantiles[2])
    )


def scalar_block(engine: QueueingEngine, request) -> BlockStats:
    """Answer one :class:`~repro.sim.simulator.BlockRequest` with one
    :func:`scalar_step` per tick, each under its own rows; a 1-D shares
    row stands for every tick, as in ``step_block``."""
    rows = request.interference
    shares = np.broadcast_to(
        request.shares, (request.ticks, engine.n_partitions)
    )
    ticks = [
        scalar_step(
            engine, 1.0, float(request.offered[i]), shares[i],
            None if rows is None else rows.take(i),
            None if request.capacity is None else request.capacity[i],
        )
        for i in range(request.ticks)
    ]
    return BlockStats(
        times=np.array([tick.time for tick in ticks]),
        p50_ms=np.array([tick.p50_ms for tick in ticks]),
        p95_ms=np.array([tick.p95_ms for tick in ticks]),
        p99_ms=np.array([tick.p99_ms for tick in ticks]),
        completed_tps=np.array([tick.completed_tps for tick in ticks]),
        offered_tps=np.array([tick.offered_tps for tick in ticks]),
        max_utilization=np.array([tick.max_utilization for tick in ticks]),
        backlog=np.array([tick.backlog for tick in ticks]),
    )


def run_scalar(
    sim,
    offered_tps: Sequence[float],
    strategy,
    history_seed_tps: Sequence[float] = (),
):
    """``sim.run`` with every engine tick taken by :func:`scalar_step`:
    a pump over ``sim.drive`` that answers each block tick by tick."""
    gen = sim.drive(offered_tps, strategy, history_seed_tps)
    block = None
    while True:
        try:
            request = gen.send(block)
        except StopIteration as stop:
            return stop.value
        block = scalar_block(sim.engine, request)


def record_latency_ticks(metrics, result, sla_ms: float) -> None:
    """Feed a run's per-second latency series into ``metrics`` one tick
    at a time: three percentile observations, and one violation second
    when p99 is above the SLA."""
    series = [result.latency.series(q) for q in (50.0, 95.0, 99.0)]
    for p50, p95, p99 in zip(*series):
        metrics.histogram("sim.latency_p50_ms").observe(float(p50))
        metrics.histogram("sim.latency_p95_ms").observe(float(p95))
        metrics.histogram("sim.latency_p99_ms").observe(float(p99))
        if p99 > sla_ms:
            metrics.counter("sim.sla_violation_seconds").inc()


def steady_shares(sim, run) -> np.ndarray:
    """Per-partition load shares with no move in flight: uniform over
    the active machines."""
    p = sim.config.partitions_per_node
    shares = np.zeros(sim.max_machines * p)
    for machine in run.active:
        shares[machine * p : (machine + 1) * p] = 1.0 / (run.alloc.machines * p)
    return shares


def per_second_control(sim, run, end: int) -> BlockRequest:
    """``ElasticDbSimulator._control``, one second at a time: inject
    faults -> close the interval -> plan -> this second's shares,
    interference and capacity from the move's state -> spend the second
    on the move."""
    start, injector = run.t, sim.injector
    p = sim.config.partitions_per_node
    shape = (end - start, sim.max_machines * p)
    shares = np.empty(shape)
    rows = capacity = None
    while run.t < end:
        t, i = run.t, run.t - start
        if injector is not None:
            sim._inject_faults(run)
        if sim._close_interval(run):
            sim._plan(run)
        move = run.alloc.move
        if move is None and injector is None:
            # Nothing changes before the next planner boundary.
            shares[i:] = steady_shares(sim, run)
            run.out_machines[t:end] = run.alloc.machines
            run.t = end
            break
        if move is not None:
            migration = move.migration
            node_map = migration.node_map or {}
            shares[i] = 0.0
            for logical, fraction in enumerate(migration.data_fractions()):
                machine = node_map.get(logical, logical)
                shares[i, machine * p : (machine + 1) * p] = fraction / p
            machines = MigrationInterference.for_rate(
                sim.max_machines,
                migration.physical_nodes(migration.migrating_machines()),
                move.rate_kbps,
                sim.chunk_kb,
            )
            if rows is None:
                rows = MigrationInterference.none(shape)
            rows.busy_fraction[i] = np.repeat(machines.busy_fraction, p)
            rows.stall_seconds[i] = np.repeat(machines.stall_seconds, p)
            run.out_machines[t] = migration.machines_allocated()
            run.out_migrating[t] = True
            run.iv_migr += 1
        else:
            shares[i] = steady_shares(sim, run)
            run.out_machines[t] = run.alloc.machines
        slowdown = injector is not None and injector.any_slowdown_active
        if slowdown:
            if capacity is None:
                capacity = np.ones(shape)
            capacity[i] = np.repeat(
                injector.capacity_multipliers(sim.max_machines, float(t)), p
            )
        wedged = move is not None and injector is not None and (
            run.alloc.next_slice(float(t), float(t + 1))[1] is not None
            or move.resend_seconds > 1e-9
        )
        if (injector is not None and injector.recovering) or slowdown or wedged:
            run.iv_fault += 1
        if move is not None:
            _progress_move(sim, run)
        run.t += 1
    return BlockRequest(
        start, end, shares, run.offered[start:end], rows, capacity
    )


def _progress_move(sim, run) -> None:
    """Spend this second on the move in flight, slice by slice of the
    allocation's move clock (``next_slice``) — wedged, re-sending a
    corrupted round or moving data, with the injector advanced to each
    slice's start — and finish the move once every round has landed."""
    move, injector = run.alloc.move, sim.injector
    now, end = float(run.t), float(run.t + 1)
    if injector is None:
        move.migration.advance(1.0)
    while injector is not None and now < end - 1e-9 and not move.finished:
        injector.advance(now)
        until, stall = run.alloc.next_slice(now, end)
        for _, record in move.progress(until - now, until, stall, run.alloc):
            if record is not None:
                injector.mark_recovered(record, until)
        now = until
    if move.finished:
        for machine in move.retiring_nodes:
            run.active.remove(machine)
        run.alloc.settle(end)


def drive_requests(sim, offered_tps, strategy, oracle: bool = False):
    """``sim.run`` by hand — under :func:`per_second_control` if
    ``oracle`` — returning the result and every block request."""
    if oracle:
        sim._control = lambda run, end: per_second_control(sim, run, end)
    gen, requests, block = sim.drive(offered_tps, strategy), [], None
    while True:
        try:
            request = gen.send(block)
        except StopIteration as stop:
            return stop.value, requests
        requests.append(request)
        block = sim.engine.step_block(
            1.0, request.offered, request.shares,
            request.interference, request.capacity,
        )
