"""Execution engines: row-level transaction execution and the calibrated
analytic queueing model.

Two engines share the cluster/routing substrate:

* :class:`TransactionExecutor` actually runs stored procedures against
  the in-memory row stores, modelling each partition as a single-server
  queue in simulated time.  It powers the examples, the functional tests,
  and small benches (e.g. Figure 7 at reduced scale).
* :class:`QueueingEngine` is a per-partition M/M/1-style analytic model
  with explicit overload backlog and migration interference.  One tick
  aggregates a whole second of traffic, so the multi-hour experiments of
  Figures 9-11 run in seconds of wall time.  It is calibrated to the
  paper's measurement that one 6-partition node saturates at 438 txn/s.

Both engines report per-second latency percentiles through
:mod:`repro.hstore.latency`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..check import invariants
from ..config import SINGLE_NODE_SATURATION_TPS
from ..errors import SimulationError, TransactionAbort
from ..telemetry import get_telemetry
from .cluster import Cluster
from .latency import LatencyRecorder
from .txn import Transaction, TxnContext, TxnResult

#: Calibrated service rate of one partition (txn/s): a 6-partition node
#: saturates at 438 txn/s (Fig. 7), i.e. 73 txn/s per partition.
DEFAULT_MU_PARTITION = SINGLE_NODE_SATURATION_TPS / 6.0

#: CPU cost of processing one kB of migration data, in seconds.  244 kB/s
#: (the calibrated safe rate R) then consumes ~5% of a partition — small
#: enough to be "unnoticeable" below Q-hat, exactly as Sec. 8.1 found.
CPU_SECONDS_PER_KB = 2.0e-4

#: A hot-key episode's extra share of the total load (uniform range),
#: and its length in seconds.
HOT_EXTRA_RANGE = (0.010, 0.025)
HOT_DURATION_RANGE = (10.0, 45.0)
#: Chance that an episode is one of the extreme transient skews that
#: even static-10 feels (Fig. 9a), and that episode's extra share.
EXTREME_EPISODE_PROB = 0.06
EXTREME_EXTRA_RANGE = (0.03, 0.06)

#: Cells the block kernel's categorical draw cuts ``[0, cdf[-1]]`` into.
#: A key shares a cell with one of a row's ``n`` cdf entries with
#: probability ~``n / _DRAW_CELLS``; only those keys are compared.
_DRAW_CELLS = 1024


# ----------------------------------------------------------------------
# Row-level executor
# ----------------------------------------------------------------------


class TransactionExecutor:
    """Executes transactions against real rows with simulated queueing.

    Each partition is a single-server FIFO queue: a transaction's latency
    is its queue wait (time until the partition frees up) plus an
    exponential service time with mean ``1 / mu_partition`` scaled by the
    procedure's cost weight.
    """

    def __init__(
        self,
        cluster: Cluster,
        mu_partition: float = DEFAULT_MU_PARTITION,
        seed: int = 1,
        recorder: Optional[LatencyRecorder] = None,
        telemetry=None,
    ):
        if mu_partition <= 0:
            raise SimulationError("mu_partition must be positive")
        self.cluster = cluster
        self.mu_partition = mu_partition
        self._rng = np.random.default_rng(seed)
        self.recorder = recorder if recorder is not None else LatencyRecorder()
        self._telemetry = telemetry if telemetry is not None else get_telemetry()
        self._busy_until: Dict[int, float] = {}
        self.committed = 0
        self.aborted = 0

    def execute(self, txn: Transaction) -> TxnResult:
        """Run one transaction at its submit time; returns the result."""
        ctx = TxnContext(self.cluster, txn.routing_key())

        start = txn.submit_time
        free_at = self._busy_until.get(ctx.partition_id, 0.0)
        begin = max(start, free_at)
        service = (
            self._rng.exponential(1.0 / self.mu_partition)
            * txn.procedure.cost_weight
        )
        finish = begin + service
        self._busy_until[ctx.partition_id] = finish
        latency_ms = (finish - start) * 1000.0

        try:
            result = txn.procedure.run(ctx, txn.params)
        except TransactionAbort as abort:
            self.aborted += 1
            self.recorder.record(start, latency_ms)
            self._observe(ctx.partition_id, latency_ms, "aborted")
            return TxnResult(
                txn=txn,
                committed=False,
                latency_ms=latency_ms,
                partition_id=ctx.partition_id,
                abort_reason=str(abort),
            )
        self.committed += 1
        self.recorder.record(start, latency_ms)
        self._observe(ctx.partition_id, latency_ms, "committed")
        return TxnResult(
            txn=txn,
            committed=True,
            latency_ms=latency_ms,
            partition_id=ctx.partition_id,
            result=result,
        )

    def _observe(self, partition_id: int, latency_ms: float, status: str) -> None:
        """Record per-partition latency + txn counters (no-op when the
        telemetry bundle is disabled; cost is this one attribute check)."""
        tel = self._telemetry
        if tel.enabled:
            tel.metrics.counter("engine.txn_total", status=status).inc()
            tel.metrics.histogram(
                "engine.latency_ms", partition=partition_id
            ).observe(latency_ms)


# ----------------------------------------------------------------------
# Analytic queueing engine
# ----------------------------------------------------------------------


@dataclass
class MigrationInterference:
    """Per-partition migration overhead for one tick.

    ``busy_fraction[p]`` is the fraction of partition ``p``'s CPU spent
    moving data; ``stall_seconds[p]`` is the length of one chunk-processing
    stall (0 when the partition is not migrating).
    """

    busy_fraction: np.ndarray
    stall_seconds: np.ndarray

    @classmethod
    def none(cls, shape) -> "MigrationInterference":
        """No overhead: zeros for ``shape`` partitions, or for a block's
        ``(ticks, partitions)``."""
        return cls(np.zeros(shape), np.zeros(shape))

    def take(self, ticks) -> "MigrationInterference":
        """Rows ``ticks`` (one index, a slice — views — or a boolean
        mask) of a block's ``(ticks, partitions)`` arrays."""
        return MigrationInterference(
            self.busy_fraction[ticks], self.stall_seconds[ticks]
        )

    @classmethod
    def for_rate(
        cls,
        n_partitions: int,
        migrating: Sequence[int],
        rate_kbps: float,
        chunk_kb: float,
    ) -> "MigrationInterference":
        """Overhead of moving ``rate_kbps`` with ``chunk_kb`` chunks on the
        given partitions."""
        busy = np.zeros(n_partitions)
        stall = np.zeros(n_partitions)
        fraction = min(0.95, rate_kbps * CPU_SECONDS_PER_KB)
        for p in migrating:
            busy[p] = fraction
            stall[p] = chunk_kb * CPU_SECONDS_PER_KB
        return cls(busy, stall)


@dataclass
class TickStats:
    """Latency and throughput of one engine tick."""

    time: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    completed_tps: float
    offered_tps: float
    max_utilization: float
    backlog: float


@dataclass
class BlockStats:
    """Per-tick series of one vectorized :meth:`QueueingEngine.step_block`.

    Entry ``i`` of every array is the :class:`TickStats` field of tick
    ``i`` — the same however the ticks are split into blocks, and the
    same as a per-tick scalar loop would report (the one in
    ``tests/engine_oracle.py``).
    """

    times: np.ndarray
    p50_ms: np.ndarray
    p95_ms: np.ndarray
    p99_ms: np.ndarray
    completed_tps: np.ndarray
    offered_tps: np.ndarray
    max_utilization: np.ndarray
    backlog: np.ndarray

    @property
    def ticks(self) -> int:
        return int(self.times.size)


@dataclass
class _BlockPrep:
    """State of one :meth:`QueueingEngine.step_block` call after the
    engine has advanced skew and backlog but before latency sampling.

    Produced by :meth:`QueueingEngine._block_prep`; consumed by the
    sampling and finish stages.  Exists so the cross-cell tensor driver
    (:mod:`repro.sim.tensor`) can interleave the *pure* sampling math of
    many engines while each engine's stateful stages run in exact scalar
    order.
    """

    dt: float
    offered: np.ndarray
    arrivals: np.ndarray        # (ticks, n) per-partition arrival rates
    mu_eff: np.ndarray          # (ticks, n) effective service rates (read-only)
    interference: Optional[MigrationInterference]   # (ticks, n) rows (read-only)
    completed: np.ndarray       # (ticks, n)
    backlog_mid: np.ndarray     # (ticks, n)
    backlog_end: np.ndarray     # (ticks, n)
    total_completed: np.ndarray  # (ticks,)

    @property
    def ticks(self) -> int:
        return int(self.offered.size)


class _SampleScratch:
    """Storage one block's latency sampling works in, kept for the next.

    A 60-tick block's ``(T, 3, S)`` uniform and ``(T, 2, S)`` exponential
    batches are each above glibc's mmap threshold: allocated per block
    they are mapped, page-faulted in and unmapped on every call.  Engines
    may draw into disjoint rows of one scratch (the tensor driver's fused
    call); nothing that outlives a block may be a view into it.
    """

    def __init__(self) -> None:
        self.uniforms = np.empty((0, 3, 0))
        self.codes = np.empty((0, 0), dtype=np.intp)

    def reserve(self, ticks: int, n_samples: int) -> None:
        """Hold at least ``ticks`` rows of ``n_samples`` samples; growing
        discards what the rows held."""
        rows, _, width = self.uniforms.shape
        if ticks <= rows and n_samples == width:
            return
        self.uniforms = np.empty((ticks, 3, n_samples))
        self.exponentials = np.empty((ticks, 2, n_samples))
        self.work = np.empty((3, ticks, n_samples))
        self.index = np.empty((ticks, n_samples), dtype=np.intp)

    def draw_codes(self, ticks: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """The categorical draw's per-shape constants for ``ticks`` rows
        of ``n`` partitions: ``codes[i, j] = 2 * (i * n + min(j, n - 1))``,
        the table entry of a cell above ``j`` of row ``i``'s entries, and
        ``base[i] = i * (_DRAW_CELLS + 1)``, row ``i``'s offset into the
        table.  Built for the most rows asked so far, sliced after."""
        rows, width = self.codes.shape
        if ticks > rows or width != n + 1:
            rows = max(ticks, rows if width == n + 1 else 0)
            flat = np.minimum(np.arange(n + 1), n - 1) + n * np.arange(rows)[:, None]
            self.codes = (2 * flat).astype(np.min_scalar_type(2 * rows * n))
            self.base = np.arange(0, rows * (_DRAW_CELLS + 1), _DRAW_CELLS + 1)[:, None]
        return self.codes[:ticks], self.base[:ticks]


class QueueingEngine:
    """Per-partition analytic queueing model with transient skew.

    The engine holds one queue per partition.  Each tick the caller
    supplies the aggregate offered load and the per-partition load shares
    (which follow the data distribution); the engine layers on transient
    skew, applies migration interference, advances the backlog dynamics,
    and reports sampled latency percentiles.

    Randomness is split over five independent generators (spawned from
    one :class:`numpy.random.SeedSequence`), one per *kind* of draw:
    hot-episode Bernoulli checks, episode details, the lognormal wobble,
    latency-sample uniforms, and latency-sample exponentials.  Because
    each stream is consumed in a fixed per-tick layout, a batched draw of
    ``T`` ticks reads every stream exactly as ``T`` one-tick draws would
    — which is what makes :meth:`step_block` bit-identical under any
    split of the ticks into blocks, :meth:`step`'s blocks of one
    included.

    Transient skew is *key-based*, as in the real workload: during a
    "hot key" episode one partition receives an extra fraction of the
    **total** offered load (a popular product draws the same share of
    site traffic no matter how many machines host the database).  This is
    the phenomenon behind the brief latency blips that even the
    peak-provisioned static cluster shows in Fig. 9a.  A small lognormal
    wobble models ordinary second-to-second imbalance.
    """

    def __init__(
        self,
        n_partitions: int,
        mu_partition: float = DEFAULT_MU_PARTITION,
        seed: int = 1,
        skew_sigma: float = 0.04,
        hot_episode_rate: float = 1.0 / 20_000.0,
        samples_per_tick: int = 256,
        telemetry=None,
    ):
        if n_partitions < 1:
            raise SimulationError("need at least one partition")
        if mu_partition <= 0:
            raise SimulationError("mu_partition must be positive")
        self._telemetry = telemetry if telemetry is not None else get_telemetry()
        self.mu_partition = mu_partition
        self.skew_sigma = skew_sigma
        self.hot_episode_rate = hot_episode_rate
        self.samples_per_tick = samples_per_tick
        streams = np.random.SeedSequence(seed).spawn(5)
        self._episode_rng = np.random.default_rng(streams[0])
        self._detail_rng = np.random.default_rng(streams[1])
        self._wobble_rng = np.random.default_rng(streams[2])
        self._sample_u_rng = np.random.default_rng(streams[3])
        self._sample_e_rng = np.random.default_rng(streams[4])
        self._backlog = np.zeros(n_partitions)
        self._hot_remaining = np.zeros(n_partitions)
        self._hot_extra = np.zeros(n_partitions)
        self._time = 0.0
        self._scratch = _SampleScratch()

    @property
    def n_partitions(self) -> int:
        return self._backlog.size

    @property
    def time(self) -> float:
        return self._time

    def _episode_details(self) -> Tuple[int, float, float]:
        """Draw one new episode's (victim, duration, extra) — a fixed
        four-draw layout on the detail stream."""
        n = self.n_partitions
        victim = int(self._detail_rng.integers(0, n))
        duration = self._detail_rng.uniform(*HOT_DURATION_RANGE)
        # Most episodes are mild; a small fraction are extreme.
        if self._detail_rng.random() < EXTREME_EPISODE_PROB:
            extra = self._detail_rng.uniform(*EXTREME_EXTRA_RANGE)
        else:
            extra = self._detail_rng.uniform(*HOT_EXTRA_RANGE)
        return victim, duration, extra

    def step(
        self,
        dt: float,
        offered_tps: float,
        shares: np.ndarray,
        interference: Optional[MigrationInterference] = None,
        capacity_multipliers: Optional[np.ndarray] = None,
    ) -> TickStats:
        """Advance one tick of length ``dt`` seconds: a :meth:`step_block`
        of one tick, validated the same way.

        ``shares`` is the per-partition fraction of the offered load
        (length ``n_partitions``; it is normalised internally so callers
        may pass raw data fractions).  ``capacity_multipliers`` scales
        each partition's service rate (straggler injection); None means
        every partition runs at full speed.
        """
        block = self.step_block(
            dt, [offered_tps], shares, interference, capacity_multipliers
        )
        return TickStats(
            time=float(block.times[0]),
            p50_ms=float(block.p50_ms[0]),
            p95_ms=float(block.p95_ms[0]),
            p99_ms=float(block.p99_ms[0]),
            completed_tps=float(block.completed_tps[0]),
            offered_tps=float(block.offered_tps[0]),
            max_utilization=float(block.max_utilization[0]),
            backlog=float(block.backlog[0]),
        )

    # ------------------------------------------------------------------
    # Vectorized block kernel
    # ------------------------------------------------------------------

    def step_block(
        self,
        dt: float,
        offered_block: Sequence[float],
        shares: np.ndarray,
        interference: Optional[MigrationInterference] = None,
        capacity_multipliers: Optional[np.ndarray] = None,
    ) -> BlockStats:
        """Advance ``len(offered_block)`` ticks in one batch.

        ``shares``, the two arrays of ``interference`` and
        ``capacity_multipliers`` hold one row per tick — shape
        ``(ticks, n_partitions)``; a single row of ``n_partitions``
        entries is checked once and used for every tick — so a block may
        span a migration or a slowdown window.  It is
        **bit-identical** to advancing the same ticks one at a time with
        that tick's row — arrivals, backlog dynamics, RNG consumption, and
        latency percentiles all match exactly (enforced by test against
        the per-tick loop in ``tests/engine_oracle.py``) — while doing the
        work as numpy batch operations.

        The kernel is staged: :meth:`_block_prep` advances skew and
        backlog (stateful), :meth:`_block_sample_draws` consumes the
        sample RNG streams (stateful), :meth:`_block_sample_math` is pure
        per-tick math, and :meth:`_block_finish` assembles stats and
        telemetry.  The stages exist so the cross-cell tensor driver
        (:mod:`repro.sim.tensor`) can fuse the pure math of many engines
        into one array program while every engine's RNG and state
        mutations keep their exact scalar order.
        """
        prep = self._block_prep(
            dt, offered_block, shares, interference, capacity_multipliers
        )
        return self._block_finish(prep, *self._block_samples(prep))

    def _rows(self, name: str, values, ticks: int) -> np.ndarray:
        """``values`` as a finite float array of ``(ticks, n_partitions)``
        rows, or of one row of ``n_partitions`` entries standing for every
        tick — kept 1-D, so it is checked once, not ``ticks`` times."""
        rows = np.asarray(values, dtype=float)
        want = (ticks, self.n_partitions)
        if rows.shape not in (want, want[1:]):
            raise SimulationError(
                f"{name} must have shape {want} or {want[1:]}, "
                f"got shape {rows.shape}"
            )
        if not np.isfinite(rows).all():
            raise SimulationError(f"{name} must be finite")
        return rows

    def _block_prep(
        self,
        dt: float,
        offered_block: Sequence[float],
        shares: np.ndarray,
        interference: Optional[MigrationInterference] = None,
        capacity_multipliers: Optional[np.ndarray] = None,
    ) -> _BlockPrep:
        """Validate and advance skew + backlog for a block.

        Consumes the episode/detail/wobble RNG streams and mutates the
        backlog exactly as ``ticks`` one-tick blocks would.  One shares
        row is validated and normalised once and broadcast against the
        per-tick wobble; ``mu_eff`` stays a broadcast scalar unless
        interference or capacity rows vary it.
        """
        if dt <= 0:
            raise SimulationError("dt must be positive")
        offered = np.asarray(offered_block, dtype=float)
        if offered.ndim != 1 or offered.size == 0:
            raise SimulationError("offered_block must be a non-empty 1-D array")
        if not np.isfinite(offered).all():
            raise SimulationError("offered_block must be finite")
        if np.any(offered < 0):
            raise SimulationError("offered load cannot be negative")
        ticks = offered.size
        shape = (ticks, self.n_partitions)
        shares = self._rows("shares", shares, ticks)
        if np.any(shares < 0):
            raise SimulationError("shares must be non-negative")
        total_share = shares.sum(axis=-1, keepdims=True)
        if np.any(total_share <= 0):
            raise SimulationError("at least one partition must receive load")
        mu_eff = self.mu_partition
        if interference is not None:
            busy = self._rows("busy_fraction", interference.busy_fraction, ticks)
            stall = self._rows("stall_seconds", interference.stall_seconds, ticks)
            if np.any(busy < 0) or np.any(busy >= 1):
                raise SimulationError("busy_fraction must lie in [0, 1)")
            interference = MigrationInterference(
                np.broadcast_to(busy, shape), np.broadcast_to(stall, shape)
            )
            mu_eff = self.mu_partition * (1.0 - busy)
        if capacity_multipliers is not None:
            caps = self._rows("capacity_multipliers", capacity_multipliers, ticks)
            if np.any(caps <= 0):
                raise SimulationError("capacity multipliers must be positive")
            mu_eff = mu_eff * caps
        mu_eff = np.broadcast_to(np.maximum(mu_eff, 1e-6), shape)

        # Every argument is checked; only now may state advance.
        wobble, extra = self._skew_block(ticks, dt)
        # ``+ 0.0`` turns a -0.0 share into +0.0, as the hot-key blend
        # below would; a block no episode touches then skips the blend,
        # since ``x * 1.0 + 0.0 == x`` for every ``x >= +0``.
        weighted = (shares / total_share + 0.0) * wobble
        weighted /= weighted.sum(axis=1)[:, None]
        if extra is None:
            arrivals = offered[:, None] * weighted
        else:
            total_extra = np.minimum(0.5, extra.sum(axis=1))
            arrivals = offered[:, None] * (
                weighted * (1.0 - total_extra)[:, None] + extra
            )
        completed, backlog_mid, backlog_end = self._backlog_block(
            arrivals, mu_eff, dt
        )
        return _BlockPrep(
            dt=dt,
            offered=offered,
            arrivals=arrivals,
            mu_eff=mu_eff,
            interference=interference,
            completed=completed,
            backlog_mid=backlog_mid,
            backlog_end=backlog_end,
            total_completed=completed.sum(axis=1),
        )

    def _block_sample_draws(
        self, scratch: _SampleScratch, start: int, ticks: int
    ) -> None:
        """Consume the sample RNG streams for ``ticks`` all-completed
        ticks into rows ``start:start + ticks`` of ``scratch``: one
        ``(T, 3, S)`` uniform batch and one ``(T, 2, S)`` exponential
        batch, read exactly as ``T`` one-tick draws would."""
        rows = slice(start, start + ticks)
        self._sample_u_rng.random(out=scratch.uniforms[rows])
        self._sample_e_rng.standard_exponential(out=scratch.exponentials[rows])

    @classmethod
    def _block_sample_math(
        cls,
        scratch: _SampleScratch,
        arrivals: np.ndarray,
        mu_eff: np.ndarray,
        backlog_mid: np.ndarray,
        completed: np.ndarray,
        total_completed: np.ndarray,
        interference: Optional[MigrationInterference] = None,
    ):
        """Pure latency-percentile math over the samples drawn into the
        first ``len(completed)`` rows of ``scratch``.

        Every operation is row (tick) independent — elementwise ops,
        per-row ``cumsum``, an exact per-row categorical draw, exact
        gathers, and per-row sorted percentiles — so stacking the blocks
        of several engines along the tick axis yields bit-identical
        per-row results.  Per-partition terms are computed on the
        ``(T, n)`` grid and gathered by flat index into ``scratch`` —
        the floats gathering first and computing after would give.  The
        stall term is skipped without ``interference`` (it would add
        ``+0.0`` to non-negative latencies), the overloaded arm when no
        partition of the block is backlogged (nothing would select it),
        and seconds become milliseconds on the six order statistics of
        each tick rather than on its samples.
        """
        ticks = len(completed)
        uniforms = scratch.uniforms[:ticks]
        exponentials = scratch.exponentials[:ticks]
        keys, latency, term = scratch.work[:, :ticks]
        flat = scratch.index[:ticks]

        def gather(grid, out):  # the default mode="raise" buffers ``out``
            return np.take(grid, flat, out=out, mode="clip")

        weights = completed / total_completed[:, None]
        cdf = np.cumsum(weights, axis=1)
        np.multiply(uniforms[:, 0, :], cdf[:, -1:], out=keys)
        cls._categorical_draw(scratch, cdf, keys, flat)
        gather(np.maximum(mu_eff - arrivals, 0.02 * mu_eff), latency)
        np.divide(exponentials[:, 0, :], latency, out=latency)
        backlogged = backlog_mid > 0.5
        if backlogged.any():
            overloaded = gather(mu_eff, keys)
            np.divide(exponentials[:, 1, :], overloaded, out=overloaded)
            np.add(gather(backlog_mid / mu_eff, term), overloaded, out=overloaded)
            np.copyto(latency, overloaded, where=backlogged.take(flat))
        if interference is not None:
            hit = uniforms[:, 1, :] < gather(interference.busy_fraction, keys)
            np.multiply(hit, uniforms[:, 2, :], out=term)
            np.multiply(term, gather(interference.stall_seconds, keys), out=term)
            np.add(latency, term, out=latency)
        return tuple(cls._percentiles_50_95_99(latency, 1000.0))

    def _block_samples(self, prep: _BlockPrep):
        """Latency percentiles ``(p50, p95, p99)`` of a prepared block.

        A tick with nothing completed consumes no sample draws and
        reports 0 ms, so only the completed rows are drawn and sampled —
        in tick order, the order per-tick draws would take.  A block
        that completed work on every tick samples its own arrays.
        """
        done = prep.total_completed > 0.0
        grids = (
            prep.arrivals, prep.mu_eff, prep.backlog_mid, prep.completed,
            prep.total_completed,
        )
        rows = prep.interference
        if done.all():
            return self._sample_rows(grids, rows)
        out = np.zeros((3, prep.ticks))
        if done.any():
            out[:, done] = self._sample_rows(
                [grid[done] for grid in grids],
                None if rows is None else rows.take(done),
            )
        return out

    def _sample_rows(self, grids, interference):
        """Draw for ``len(grids[0])`` ticks into this engine's scratch and
        run :meth:`_block_sample_math` over them."""
        ticks = len(grids[0])
        self._scratch.reserve(ticks, self.samples_per_tick)
        self._block_sample_draws(self._scratch, 0, ticks)
        return self._block_sample_math(self._scratch, *grids, interference)

    def _block_finish(
        self,
        prep: _BlockPrep,
        p50: np.ndarray,
        p95: np.ndarray,
        p99: np.ndarray,
    ) -> BlockStats:
        """Advance simulated time, check invariants, emit telemetry, and
        assemble the :class:`BlockStats` for a prepared block."""
        dt = prep.dt
        ticks = prep.ticks
        utilization = np.max(prep.arrivals / prep.mu_eff, axis=1)
        backlog_sums = prep.backlog_end.sum(axis=1)
        completed_tps = prep.total_completed / dt
        times = self._time + dt * np.arange(1, ticks + 1)
        self._time += dt * ticks
        if invariants.enabled(invariants.CHEAP):
            # One end-of-block check keeps the fast path's per-tick cost
            # at zero; mid-block negativity cannot heal (the recursion
            # only clips at zero), so the end state is sufficient.
            invariants.check_nonnegative_backlog(
                self._backlog, "QueueingEngine.step_block", time=self._time
            )

        tel = self._telemetry
        if tel.enabled:
            # One bulk call per instrument, bit-identical to per-tick
            # calls; a gauge ends where the block's last tick left it.
            metrics = tel.metrics
            metrics.histogram("engine.tick_p50_ms").observe_many(p50)
            metrics.histogram("engine.tick_p99_ms").observe_many(p99)
            metrics.gauge("engine.backlog_txns").set(float(backlog_sums[-1]))
            metrics.gauge("engine.max_utilization").set(float(utilization[-1]))
            metrics.counter("engine.completed_txns").inc_many(completed_tps * dt)
        return BlockStats(
            times=times,
            p50_ms=p50,
            p95_ms=p95,
            p99_ms=p99,
            completed_tps=completed_tps,
            offered_tps=prep.offered.copy(),
            max_utilization=utilization,
            backlog=backlog_sums,
        )

    def _skew_block(self, ticks: int, dt: float):
        """Hot-key episodes and wobble over ``ticks`` ticks, batched.

        Episode-check uniforms and wobble normals are drawn in one batch
        per stream (bitstream-equivalent to per-tick draws); the sparse
        hot-episode state is replayed as segments.  Returns the per-tick
        ``(wobble, extra)`` matrices — ``extra`` None when no episode
        touches the block — and leaves the hot-episode state exactly
        where a per-tick update (``advance_skew`` in
        ``tests/engine_oracle.py``) would.
        """
        n = self.n_partitions
        u = self._episode_rng.random(ticks)
        wobble = np.exp(self._wobble_rng.normal(0.0, self.skew_sigma, (ticks, n)))
        hot: List[Tuple[int, int, int, float]] = []   # (first, last, p, extra)
        p_new = self.hot_episode_rate * n * dt

        # partition -> (extra value, first tick, last tick exclusive,
        # remaining seconds after the block).  The per-tick rule decrements
        # remaining by dt *before* using it, so an episode with remaining
        # r at entry stays hot for ceil(r) - 1 more ticks, and one
        # started at tick s with duration D for ceil(D) ticks from s.
        open_episodes: Dict[int, Tuple[float, int, int, float]] = {}
        for p in np.nonzero(self._hot_remaining > 0.0)[0]:
            r0 = float(self._hot_remaining[p])
            end = max(0, math.ceil(r0) - 1)
            open_episodes[int(p)] = (
                float(self._hot_extra[p]), 0, end, max(0.0, r0 - ticks)
            )
        for s in np.nonzero(u < p_new)[0]:
            s = int(s)
            victim, duration, extra_val = self._episode_details()
            if victim in open_episodes:
                # A fresh episode overwrites the partition's previous one.
                value, first, last, _ = open_episodes.pop(victim)
                last = min(last, s)
                if last > first:
                    hot.append((first, last, victim, value))
            end = s + math.ceil(duration)
            remaining = max(0.0, duration - (ticks - 1 - s))
            open_episodes[victim] = (extra_val, s, end, remaining)
        remaining_state = np.zeros(n)
        extra_state = np.zeros(n)
        for p, (value, first, last, remaining) in open_episodes.items():
            last = min(last, ticks)
            if last > first:
                hot.append((first, last, p, value))
            remaining_state[p] = remaining
            if remaining > 0.0:
                extra_state[p] = value
        self._hot_remaining = remaining_state
        self._hot_extra = extra_state
        if not hot:
            return wobble, None
        extra = np.zeros((ticks, n))
        for first, last, p, value in hot:
            extra[first:last, p] = value
        return wobble, extra

    def _backlog_block(self, arrivals: np.ndarray, mu_eff: np.ndarray, dt: float):
        """Advance the backlog recursion over a block of arrivals, each
        tick under its own row of ``mu_eff``.

        The fully-drained case (no entry backlog, every tick under
        capacity) is closed-form; otherwise the recursion runs tick by
        tick with the exact expressions of a one-tick update, which keeps
        results bit-identical under float rounding.
        """
        ticks, n = arrivals.shape
        capacity = mu_eff * dt
        completed = np.empty((ticks, n))
        backlog_mid = np.empty((ticks, n))
        backlog_end = np.empty((ticks, n))
        demand0 = arrivals * dt
        if not self._backlog.any():
            under = np.all(demand0 <= capacity, axis=1)
            first_loop = ticks if bool(under.all()) else int(np.argmin(under))
        else:
            first_loop = 0
        if first_loop:
            completed[:first_loop] = demand0[:first_loop]
            backlog_mid[:first_loop] = 0.0
            backlog_end[:first_loop] = 0.0
        backlog = self._backlog
        for i in range(first_loop, ticks):
            demand = backlog + demand0[i]
            done = np.minimum(demand, capacity[i])
            new_backlog = demand - done
            completed[i] = done
            backlog_mid[i] = 0.5 * (backlog + new_backlog)
            backlog_end[i] = new_backlog
            backlog = new_backlog
        self._backlog = backlog_end[ticks - 1].copy()
        return completed, backlog_mid, backlog_end

    @staticmethod
    def _categorical_draw(
        scratch: _SampleScratch, cdf: np.ndarray, keys: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """Row-wise ``min(cdf[i].searchsorted(keys[i], side="right"),
        n - 1) + i * n`` — the drawn partition's flat index into a
        ``(ticks, n)`` grid — into ``out`` (C-contiguous ``intp``), as a
        table lookup.

        Entries and keys — in ``[0, cdf[i, -1]]`` — go through the same
        cell function ``int(x * (_DRAW_CELLS / cdf[i, -1]))``.  Each float
        operation in it is monotone, so a key in a higher cell than an
        entry is greater than it and one in a lower cell smaller: a key
        whose cell holds no entry is answered exactly by the number of
        entries in lower cells (ties and ``key == cdf[i, -1]`` included),
        and only a key sharing its cell with an entry is compared.  The
        table's entries carry the row offset and the ``n - 1`` clip
        (:meth:`_SampleScratch.draw_codes`), so a lookup is the answer.
        """
        ticks, n = cdf.shape
        codes, base = scratch.draw_codes(ticks, n)
        scale = _DRAW_CELLS / cdf[:, -1:]
        cells = (cdf * scale).astype(np.intp)
        # table[i, m] = codes[i, entries of row i in cells below m] + (cell
        # m holds one): count j fills cells (cells[i, j-1], cells[i, j]].
        runs = np.empty((ticks, n + 1), dtype=np.intp)
        np.add(cells[:, 0], 1, out=runs[:, 0])
        np.subtract(cells[:, 1:], cells[:, :-1], out=runs[:, 1:n])
        np.subtract(_DRAW_CELLS, cells[:, -1], out=runs[:, n])
        table = np.repeat(codes.ravel(), runs.ravel())
        table[(cells + base).ravel()] |= 1
        np.multiply(keys, scale, out=out, casting="unsafe")
        out += base
        code = table.take(out)
        np.right_shift(code, 1, out=out)
        # A key sharing its cell is compared with the first entry there
        # (never past the last); where the next entry sits in the same
        # cell too (weights small or zero), the key's row is counted
        # outright.
        shared = np.flatnonzero((code & 1).astype(bool))
        row = shared // keys.shape[1]
        key = keys.reshape(-1)[shared]
        answers = out.reshape(-1)
        first = answers[shared]
        answers[shared] = np.minimum(
            first + (cdf.reshape(-1)[first] <= key), row * n + (n - 1)
        )
        crowd = np.flatnonzero((runs[:, 1:] == 0).reshape(-1)[first])
        row = row[crowd]
        answers[shared[crowd]] = row * n + np.minimum(
            (cdf[row] <= key[crowd, None]).sum(axis=1), n - 1
        )

    @staticmethod
    def _percentiles_50_95_99(ms: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """``np.percentile(ms * scale, [50, 95, 99], axis=-1)``,
        bit-identical; sorts ``ms`` in place.

        Replicates numpy's ``linear`` interpolation method (including the
        ``gamma >= 0.5`` lerp branch) on one sort — several times cheaper
        at these sizes than partitioning around six order statistics.
        Multiplying by a positive ``scale`` is monotone, so it commutes
        with the sort: only the six order statistics are scaled.
        """
        size = ms.shape[-1]
        virtual = np.array([0.5, 0.95, 0.99]) * (size - 1)
        lo = np.floor(virtual).astype(np.intp)
        hi = np.ceil(virtual).astype(np.intp)
        gamma = virtual - lo
        ms.sort(axis=-1)
        a = ms[..., lo] * scale
        b = ms[..., hi] * scale
        diff = b - a
        out = a + diff * gamma
        high = gamma >= 0.5
        out[..., high] = (b - diff * (1.0 - gamma))[..., high]
        return np.moveaxis(out, -1, 0)
