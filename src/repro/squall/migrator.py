"""Simulated-time execution of reconfigurations (the Squall role).

:class:`ActiveMigration` advances one reconfiguration through its
schedule in simulated time, tracking per-machine data fractions, the
just-in-time machine allocation, and which machines are busy migrating —
everything the queueing engine and the capacity accounting need.

:class:`Reconfiguration` is the one owner of a move's *lifecycle*: it
pairs the schedule with its :class:`ActiveMigration`, keeps the move's
bookkeeping, writes the ``migration.start | complete | aborted`` and
``node.add | remove`` telemetry, steps a move across one planner slot
(sampling Eq. 7 at the midpoint), tracks a wedged or corrupted transfer
through detection and re-send, and checkpoints itself.  Every loop that
runs moves (both simulators, the serve controller, :class:`ClusterMigrator`)
starts, counts and settles them through its :class:`Allocation`, which
also runs the move side of the loop's fault protocol.

:class:`ClusterMigrator` binds migrations to a row-level
:class:`~repro.hstore.cluster.Cluster`: it computes the bucket-level
reconfiguration plan, and as each machine-pair transfer completes it
commits the corresponding bucket moves so the rows physically relocate.

The migrator spends a move's time by its allocation's move clock,
:meth:`Allocation.next_slice`: slices end where a round lands, a re-send
is paid off or an attached :class:`~repro.faults.FaultInjector` changes
(bucket moves only commit once a clean copy has arrived);
:meth:`ClusterMigrator.abort` and :meth:`ClusterMigrator.fail_node` are
the crash edge.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from ..check import invariants
from ..config import DEFAULT_CHUNK_KB, DEFAULT_MIGRATION_RATE_KBPS, PStoreConfig
from ..decision import NO_ACTION, ScaleDecision
from ..errors import MigrationError, SimulationError
from ..hstore.cluster import Cluster
from ..persist import Persisted
from ..telemetry import get_telemetry
from .plan import BucketMove, make_reconfiguration_plan
from .schedule import MigrationSchedule, Transfer, build_migration_schedule


def chunk_spacing_seconds(chunk_kb: float, rate_kbps: float) -> float:
    """Average spacing between migration chunks: one ``chunk_kb`` chunk
    every ``chunk_kb / R`` seconds at rate ``R`` (Sec. 8.1, footnote 1)."""
    if chunk_kb <= 0:
        raise MigrationError("chunk_kb must be positive")
    if rate_kbps <= 0:
        raise MigrationError("rate_kbps must be positive")
    return chunk_kb / rate_kbps


#: Spacing implied by the calibration defaults (1000 kB at R = 244 kB/s);
#: configured runs should derive their own via :func:`chunk_spacing_seconds`
#: or :attr:`ActiveMigration.chunk_spacing_seconds`.
CHUNK_SPACING_SECONDS = chunk_spacing_seconds(
    DEFAULT_CHUNK_KB, DEFAULT_MIGRATION_RATE_KBPS
)


class MigrationSeconds(NamedTuple):
    """The state each of ``k`` seconds of a move *starts* in, one row per
    second (see :meth:`ActiveMigration.advance_seconds`)."""

    fractions: np.ndarray   # (k, machines): ``data_fractions()``
    allocation: np.ndarray  # (k,): ``machines_allocated()``
    rounds: np.ndarray      # (k,): the active round, ``n_rounds`` once done


class ActiveMigration:
    """One in-flight reconfiguration, advanced in simulated time.

    Machine indices are the *logical* indices of the schedule (the
    smaller cluster occupies 0..s-1); callers that operate on physical
    nodes supply a ``node_map`` from logical index to node id.

    Parameters
    ----------
    schedule:
        transfer schedule from :func:`build_migration_schedule`.
    database_kb:
        total database size; each transfer carries
        ``schedule.fraction_per_transfer * database_kb``.
    rate_kbps:
        migration rate of one partition-pair lane (the paper's ``R``;
        pass ``8 * R`` for the boosted reactive mode of Fig. 11).
    partitions_per_node:
        parallel lanes per machine pair.
    """

    def __init__(
        self,
        schedule: MigrationSchedule,
        database_kb: float,
        rate_kbps: float,
        partitions_per_node: int = 1,
        chunk_kb: float = DEFAULT_CHUNK_KB,
        node_map: Optional[Mapping[int, int]] = None,
    ):
        if database_kb <= 0:
            raise MigrationError("database_kb must be positive")
        if rate_kbps <= 0:
            raise MigrationError("rate_kbps must be positive")
        if partitions_per_node < 1:
            raise MigrationError("partitions_per_node must be >= 1")
        if chunk_kb <= 0:
            raise MigrationError("chunk_kb must be positive")
        self.schedule = schedule
        self.database_kb = database_kb
        self.rate_kbps = rate_kbps
        self.partitions_per_node = partitions_per_node
        self.chunk_kb = chunk_kb
        self.node_map = dict(node_map) if node_map is not None else None

        self._pair_kb = schedule.fraction_per_transfer * database_kb
        # A machine pair moves its data over P parallel partition lanes.
        lane_rate = rate_kbps * partitions_per_node
        self._round_seconds = (
            self._pair_kb / lane_rate if schedule.n_rounds else 0.0
        )
        self._round_index = 0
        self._elapsed_in_round = 0.0
        self._progress_applied = 0.0
        larger = max(schedule.before, schedule.after)
        self._fractions = np.zeros(larger)
        smaller = min(schedule.before, schedule.after)
        self._fractions[:smaller] = 1.0 / schedule.before
        if schedule.before > schedule.after:
            self._fractions[smaller:] = 1.0 / schedule.before
        # Fraction vector as of the last committed round.  Commits rebuild
        # from this snapshot, so partial-step float increments within a
        # round can never drift the committed trajectory.
        self._round_base = self._fractions.copy()
        self._completed_rounds: List[Tuple[Transfer, ...]] = []

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self._round_index >= self.schedule.n_rounds

    @property
    def round_seconds(self) -> float:
        return self._round_seconds

    @property
    def total_seconds(self) -> float:
        """Wall-clock duration of the whole reconfiguration."""
        return self._round_seconds * self.schedule.n_rounds

    @property
    def seconds_to_round_end(self) -> float:
        """Transfer time left in the current round (0 when done)."""
        if self.done:
            return 0.0
        return max(0.0, self._round_seconds - self._elapsed_in_round)

    @property
    def chunk_spacing_seconds(self) -> float:
        """Chunk spacing implied by this migration's chunk size and lane
        rate (replaces the old hardcoded calibration constant)."""
        return chunk_spacing_seconds(self.chunk_kb, self.rate_kbps)

    @property
    def elapsed_fraction(self) -> float:
        if self.schedule.n_rounds == 0:
            return 1.0
        done = self._round_index + (
            self._elapsed_in_round / self._round_seconds
            if self._round_seconds > 0 and not self.done
            else 0.0
        )
        return min(1.0, done / self.schedule.n_rounds)

    @property
    def fraction_moved(self) -> float:
        """Fraction of the *data being moved in this move* transferred
        so far (the ``f`` of Eq. 7)."""
        return self.elapsed_fraction

    def advance(self, dt: float) -> List[Tuple[Transfer, ...]]:
        """Advance ``dt`` seconds; returns the rounds completed in it."""
        if dt < 0:
            raise MigrationError("dt must be non-negative")
        completed: List[Tuple[Transfer, ...]] = []
        remaining = dt
        while remaining > 0 and not self.done:
            left_in_round = self._round_seconds - self._elapsed_in_round
            if remaining + 1e-12 >= left_in_round:
                remaining -= left_in_round
                round_ = self.schedule.rounds[self._round_index]
                # Commit exactly: restore the round-entry snapshot and
                # apply the whole round in one step, so the committed
                # vector equals the snapshot plus one exact transfer per
                # pair no matter how the round was sliced.
                np.copyto(self._fractions, self._round_base)
                self._apply_round(round_, fraction=1.0)
                self._round_base = self._fractions.copy()
                self._completed_rounds.append(round_)
                completed.append(round_)
                self._round_index += 1
                self._elapsed_in_round = 0.0
                self._progress_applied = 0.0
                if invariants.enabled(invariants.CHEAP):
                    invariants.check_fraction_conservation(
                        self._fractions, "ActiveMigration.advance"
                    )
            else:
                # Partial progress within the current round.
                step_fraction = remaining / self._round_seconds
                round_ = self.schedule.rounds[self._round_index]
                self._apply_round(round_, fraction=step_fraction)
                self._progress_applied += step_fraction
                self._elapsed_in_round += remaining
                remaining = 0.0
        return completed

    def advance_seconds(self, k: int) -> MigrationSeconds:
        """Advance whole seconds, ``k`` at most and none past the second
        the last round commits in; returns the state each second started
        in.

        Bit-identical to one ``advance(1.0)`` per second.  A run of
        seconds inside one round takes the partial branch of
        :meth:`advance` every second: the elapsed and progress scalars
        add up second by second, and each transfer's endpoints take the
        same ``-delta`` / ``+delta`` one after another, in one
        ``np.add.accumulate`` (a machine is in at most one transfer per
        round).  A second that reaches a round boundary is
        :meth:`advance` itself, commit, invariant check and the partial
        step after the boundary included.
        """
        if k < 1:
            raise MigrationError("k must be >= 1")
        fractions = np.empty((k, self._fractions.size))
        allocation = np.empty(k, dtype=np.intp)
        rounds = np.empty(k, dtype=np.intp)
        i = 0
        while i < k:
            if not self.done:
                i += self._partial_seconds(fractions[i:], allocation[i:], rounds[i:])
                if i == k:
                    break
            fractions[i] = self._fractions
            allocation[i] = self.machines_allocated()
            rounds[i] = self._round_index
            self.advance(1.0)
            i += 1
            if self.done:
                break
        fractions = fractions[:i]
        np.clip(fractions, 0.0, None, out=fractions)
        return MigrationSeconds(fractions, allocation[:i], rounds[:i])

    def _partial_seconds(
        self, fractions: np.ndarray, allocation: np.ndarray, rounds: np.ndarray
    ) -> int:
        """Take the whole seconds that stay inside the current round, as
        many as the rows given; write each one's starting state into
        them and return how many were taken."""
        seconds, elapsed, progress = 0, self._elapsed_in_round, self._progress_applied
        step_fraction = 1.0 / self._round_seconds
        while (
            seconds < len(rounds)
            and 1.0 + 1e-12 < self._round_seconds - elapsed
        ):
            elapsed += 1.0
            progress += step_fraction
            seconds += 1
        if not seconds:
            return 0
        round_ = self.schedule.rounds[self._round_index]
        delta = self.schedule.fraction_per_transfer * step_fraction
        senders = [transfer.sender for transfer in round_]
        moving = senders + [transfer.receiver for transfer in round_]
        steps = np.empty((seconds + 1, len(moving)))
        steps[0] = self._fractions[moving]
        steps[1:, : len(senders)] = -delta
        steps[1:, len(senders):] = delta
        np.add.accumulate(steps, axis=0, out=steps)
        fractions[:seconds] = self._fractions
        fractions[:seconds, moving] = steps[:-1]
        self._fractions[moving] = steps[-1]
        allocation[:seconds] = self.machines_allocated()
        rounds[:seconds] = self._round_index
        self._elapsed_in_round = elapsed
        self._progress_applied = progress
        return seconds

    def _apply_round(self, round_: Tuple[Transfer, ...], fraction: float) -> None:
        delta = self.schedule.fraction_per_transfer * fraction
        for transfer in round_:
            self._fractions[transfer.sender] -= delta
            self._fractions[transfer.receiver] += delta

    def rollback_partial_round(self) -> float:
        """Discard partial progress inside the current round.

        Transfers commit at round granularity; an abort mid-round must
        not leave the fluid fractions between two committed states.
        Restores the round-entry snapshot and returns the fraction of the
        round that was rolled back (0.0 when already at a round boundary).
        """
        rolled = self._progress_applied
        if rolled > 0.0:
            np.copyto(self._fractions, self._round_base)
            self._elapsed_in_round = 0.0
            self._progress_applied = 0.0
        return rolled

    # ------------------------------------------------------------------
    # State exposed to engines and accounting
    # ------------------------------------------------------------------

    def data_fractions(self) -> np.ndarray:
        """Per-logical-machine fraction of the database (sums to 1).

        Drained machines are clipped at exactly zero (floating-point
        round-off in the per-round updates can leave values like -1e-18).
        """
        return np.clip(self._fractions, 0.0, None)

    def state(self, seconds: int) -> MigrationSeconds:
        """The state ``seconds`` seconds from now start in, one row each,
        when no data moves before the last of them starts."""
        return MigrationSeconds(
            np.broadcast_to(self.data_fractions(), (seconds, self._fractions.size)),
            np.full(seconds, self.machines_allocated()),
            np.full(seconds, self._round_index),
        )

    def machines_allocated(self) -> int:
        """Machines physically present right now (just-in-time policy)."""
        if self.done:
            return self.schedule.after
        return self.schedule.allocation[self._round_index]

    def migrating_machines(self, round_index: Optional[int] = None) -> Set[int]:
        """Logical machines sending or receiving in round ``round_index``
        — the active round by default; none past the last round."""
        if round_index is None:
            round_index = self._round_index
        busy: Set[int] = set()
        if round_index < self.schedule.n_rounds:
            for transfer in self.schedule.rounds[round_index]:
                busy.add(transfer.sender)
                busy.add(transfer.receiver)
        return busy

    def physical_nodes(self, machines: Set[int]) -> Set[int]:
        if self.node_map is None:
            return machines
        return {self.node_map[m] for m in machines}


#: Bucket bounds of the ``migrate.duration_seconds`` histogram.
_DURATION_BOUNDS = tuple(float(2 ** i) for i in range(24))


class Reconfiguration(Persisted):
    """One move from ``before`` to ``after`` machines and its lifecycle:
    built -> :meth:`start` -> advanced -> :meth:`complete` | :meth:`abort`.

    Built and started by :meth:`Allocation.start`.  The loops keep their
    own order and time slicing (see ``docs/ALGORITHMS.md``): slot-level
    loops advance it with :meth:`step_slot`; tick-level loops advance it
    through :meth:`Allocation.spend`, and the simulator takes the whole
    seconds of a slice that moves data with ``migration.advance_seconds``.

    The three emitters write one chronicle record each, with the same
    fields in every loop, and own the ``migrate.moves_started |
    emergencies | moves_aborted`` counters.  ``emergency`` and ``reason``
    are on ``migration.start`` only; the records that follow reach them
    through ``parent``.  ``**fields`` are the calling loop's extras:
    ``slot`` where a strategy decision started the move, ``rounds`` on
    the row-level cluster.

    Loops with physical machines pass the current ones in order as
    ``nodes`` and a scale-out's provisioned ones as ``newcomers``.  The
    schedule's logical machines are the current nodes first, then the
    newcomers, and a scale-in retires the tail.
    """

    def __init__(
        self,
        config: PStoreConfig,
        before: int,
        after: int,
        rate_kbps: float,
        telemetry,
        chunk_kb: float = DEFAULT_CHUNK_KB,
        database_kb: Optional[float] = None,
        nodes: Sequence[int] = (),
        newcomers: Sequence[int] = (),
    ):
        self.before = before
        self.after = after
        self.rate_kbps = rate_kbps
        order = list(nodes) + list(newcomers)
        #: Machines provisioned for a scale-out / drained by a scale-in
        #: (chronicled as ``node.add`` at the start, ``node.remove`` at
        #: completion; empty where the loop has no physical nodes).
        self.added_nodes = list(newcomers)
        self.retiring_nodes = order[after:]
        #: What ``migration`` is built from besides endpoints and rate.
        self._build = dict(
            database_kb=config.database_kb if database_kb is None else database_kb,
            partitions_per_node=config.partitions_per_node,
            chunk_kb=chunk_kb,
            node_map=dict(enumerate(order)) if order else None,
        )
        self._half_slot = config.interval_seconds / 2.0
        self._telemetry = telemetry
        self.started_at = 0.0
        #: Chronicle id of the ``migration.start`` record, parent of
        #: everything else this move writes (None with telemetry off).
        self.record_id: Optional[str] = None
        #: Half-slot ``advance`` calls applied by :meth:`step_slot`; a
        #: restore replays exactly this many.
        self.half_steps = 0
        # Fault recovery (inert without an injector).
        #: The stall record the watchdog is on (None while data moves).
        self.stall = None
        self._stall_attempts = 0
        self._next_retry_at = 0.0
        #: Simulated seconds of re-sending still owed for corrupted rounds.
        self.resend_seconds = 0.0
        #: Corrupted rounds held back until re-sent, with their faults.
        self._held: List[Tuple[Tuple[Transfer, ...], object]] = []
        self._rebuild()     # builds ``migration``

    # ------------------------------------------------------------------
    # Lifecycle records
    # ------------------------------------------------------------------

    def start(
        self, now: float, decision: ScaleDecision = NO_ACTION, **fields
    ) -> None:
        """The move ``decision`` asked for begins at ``now``: the
        decision's ``record_id`` parents ``migration.start``, so ``pstore
        explain`` can walk forecast -> plan -> move, and its
        ``emergency`` and ``reason`` are recorded there."""
        self.started_at = now
        tel = self._telemetry
        if not tel.enabled:
            return
        rec = tel.chronicle.record(
            "migration.start", time=now, parent=decision.record_id,
            before=self.before, after=self.after, rate_kbps=self.rate_kbps,
            est_seconds=self.migration.total_seconds,
            emergency=decision.emergency, reason=decision.reason, **fields,
        )
        self.record_id = rec.get("id")
        tel.metrics.counter("migrate.moves_started").inc()
        if decision.emergency:
            tel.metrics.counter("migrate.emergencies").inc()
        if self.added_nodes:
            tel.chronicle.record(
                "node.add", time=now, parent=self.record_id,
                nodes=self.added_nodes,
            )

    def complete(self, now: float) -> Optional[str]:
        """The last round has committed; returns the record's id."""
        tel = self._telemetry
        if not tel.enabled:
            return None
        seconds = now - self.started_at
        tel.metrics.histogram(
            "migrate.duration_seconds", bounds=_DURATION_BOUNDS
        ).observe(seconds)
        if self.retiring_nodes:
            tel.chronicle.record(
                "node.remove", time=now, parent=self.record_id,
                nodes=self.retiring_nodes, reason="scale-in",
            )
        rec = tel.chronicle.record(
            "migration.complete", time=now, parent=self.record_id,
            before=self.before, after=self.after, seconds=seconds,
        )
        return rec.get("id")

    def abort(self, now: float, reason: str) -> Optional[str]:
        """The move is cancelled; returns the record's id.  Transfers
        commit at round granularity, so a partially-applied round is
        rolled back first: ``migration`` is left at the last committed
        boundary, which is what the machines really hold."""
        rolled_back = self.migration.rollback_partial_round()
        tel = self._telemetry
        if not tel.enabled:
            return None
        rec = tel.chronicle.record(
            "migration.aborted", time=now, parent=self.record_id,
            before=self.before, after=self.after, reason=reason,
            elapsed=now - self.started_at, rolled_back_fraction=rolled_back,
        )
        tel.metrics.counter("migrate.moves_aborted").inc()
        return rec.get("id")

    # ------------------------------------------------------------------
    # Slot-granularity stepping (capacity-level loops)
    # ------------------------------------------------------------------

    def step_slot(self, slot_seconds: float) -> Tuple[float, int]:
        """Advance one planner slot.  Returns the state at the slot's
        midpoint: the largest per-machine data fraction (effective
        capacity is ``Q / largest``, Eq. 7) and the machines allocated."""
        migration = self.migration
        half = slot_seconds / 2.0
        migration.advance(half)
        largest = float(migration.data_fractions().max())
        allocated = migration.machines_allocated()
        migration.advance(half)
        self.half_steps += 2
        return largest, allocated

    # ------------------------------------------------------------------
    # Tick-level stepping, under injected faults or none
    # ------------------------------------------------------------------

    @property
    def finished(self) -> bool:
        """Every round transferred and every re-send paid for."""
        return self.migration.done and self.resend_seconds <= 1e-9

    def progress(
        self, dt: float, now: float, stall, alloc: "Allocation"
    ) -> List[Tuple[Tuple[Transfer, ...], object]]:
        """Spend the ``dt`` seconds ending at ``now`` on this move, under
        the faults of ``alloc``'s injector (if any) and its retry policy.

        ``stall`` is the injector's active stall record, if any: a wedged
        transfer moves no data while the watchdog re-drives it.  Else the
        time first pays off re-sends owed for corrupted rounds, and only
        then advances the transfers.  Returns ``(round, fault record)``
        for every round a clean copy of which has now arrived — the
        record is None unless the round was a re-send, in which case the
        caller marks it recovered (after committing the round, where
        there is something to commit).
        """
        if stall is not None:
            self._watch_stall(stall, now, alloc)
            return []
        self.stall = None
        if self.resend_seconds > 1e-9:
            self.resend_seconds = max(0.0, self.resend_seconds - dt)
            if self.resend_seconds > 1e-9:
                return []
            self.resend_seconds = 0.0
            arrived, self._held = self._held, []
            return arrived
        arrived = []
        injector = alloc.injector
        for round_ in self.migration.advance(dt):
            corruption = None if injector is None else injector.take_corruption()
            if corruption is None:
                arrived.append((round_, None))
                continue
            # Hold the round back and owe a full re-send plus one backoff.
            injector.mark_detected(corruption, now)
            backoff = alloc.config.faults.backoff_seconds(1, alloc.rng)
            injector.mark_retry(corruption, now, backoff)
            self.resend_seconds += self.migration.round_seconds + backoff
            self._held.append((round_, corruption))
        return arrived

    def _watch_stall(self, stall, now: float, alloc: "Allocation") -> None:
        """Detect the wedged transfer after the retry timeout and log one
        re-drive per backoff interval (all in simulated time)."""
        retry = alloc.config.faults
        if self.stall is not stall:
            self.stall = stall
            self._stall_attempts = 0
            self._next_retry_at = (
                stall.injected_at + retry.transfer_timeout_seconds
            )
        while now + 1e-9 >= self._next_retry_at and retry.should_retry(
            self._stall_attempts + 1
        ):
            if self._stall_attempts == 0:
                alloc.injector.mark_detected(stall, self._next_retry_at)
            self._stall_attempts += 1
            backoff = retry.backoff_seconds(self._stall_attempts, alloc.rng)
            alloc.injector.mark_retry(stall, self._next_retry_at, backoff)
            self._next_retry_at += backoff

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    #: The move as its *inputs*, not its float fractions.
    PERSIST = (
        "before", "after", "rate_kbps", "started_at", "half_steps", "record_id",
    )

    def _rebuild(self) -> None:
        """``migration`` is derived state: build the schedule from the
        endpoints and the rate, then replay the ``advance`` sequence
        :meth:`step_slot` applied — which reproduces the fluid
        trajectory bit-exactly, because round commits rebuild from
        snapshots (see :class:`ActiveMigration`)."""
        self.migration = ActiveMigration(
            schedule=build_migration_schedule(self.before, self.after),
            rate_kbps=self.rate_kbps,
            **self._build,
        )
        for _ in range(self.half_steps):
            self.migration.advance(self._half_slot)


class Allocation:
    """A loop's steady ``machines``, its ``move`` in flight, the
    ``moves_started`` / ``emergencies`` counts and the ``pool`` (None:
    unbounded): the one way from a decision to a move to a new size.

    With the loop's :class:`~repro.faults.FaultInjector` (None: no
    faults) it runs the move side of the fault protocol, with the retry
    policy ``config.faults`` and one backoff-jitter ``rng`` that
    outlives every move: :meth:`start` notifies the injector,
    :meth:`next_slice` is the move clock and :meth:`spend` spends a
    move's time by it, :meth:`confirm` confirms crash recovery.
    """

    def __init__(
        self, config: PStoreConfig, machines: int, telemetry, pool=None,
        injector=None,
    ):
        self.config, self.machines, self.pool = config, machines, pool
        self.move: Optional[Reconfiguration] = None
        self.moves_started = self.emergencies = 0
        self._telemetry = telemetry
        self.injector = injector
        self.rng = None if injector is None else np.random.default_rng(injector.seed + 1)

    @property
    def pool(self) -> Optional[int]:
        return self._pool

    @pool.setter
    def pool(self, pool: Optional[int]) -> None:
        if pool is not None and pool < 1:
            raise SimulationError(f"the machine pool must be >= 1 (got {pool})")
        self._pool = pool

    @property
    def migrating(self) -> bool:
        return self.move is not None

    @property
    def machines_now(self) -> int:
        """The move's just-in-time allocation mid-move, else ``machines``."""
        move = self.move
        return move.migration.machines_allocated() if move else self.machines

    def target(self, decision: ScaleDecision) -> Optional[int]:
        """The pool rule: ``decision``'s target capped at the pool, or
        None when that leaves nothing to do."""
        return decision.target_from(self.machines, self.pool)

    def start(
        self, target: int, decision: ScaleDecision, now: float,
        fields: Mapping[str, int], **build,
    ) -> Reconfiguration:
        """Build, start and count the move to ``target`` at the decision's
        rate, parented on its record, and tell the injector a move has
        started (its ``on_migration`` faults fire).  ``fields`` are the
        loop's extras on ``migration.start``, ``build`` its machines
        (``nodes`` / ``newcomers``) and sizes."""
        move = self.move = Reconfiguration(
            self.config, self.machines, target,
            self.config.migration_rate_kbps * decision.rate_multiplier,
            self._telemetry, **build,
        )
        move.start(now, decision, **fields)
        self.moves_started += 1
        self.emergencies += decision.emergency
        if self.injector is not None:
            self.injector.notify_migration_started(now)
        return move

    def next_slice(self, now: float, limit: float) -> Tuple[float, object]:
        """The move clock of every tick-level host: the end of the next
        slice of time from ``now`` (``limit`` at the latest), and the
        injector's stall at ``now`` (None: the slice moves data).

        A stall wedges every transfer, a re-send included; else a slice
        pays off owed re-sends, then moves the current round.  It ends
        where the injector next changes (at its clock, if a move start
        ran it past ``now``), the re-send is paid off or the round lands.
        """
        end, stall, injector, move = limit, None, self.injector, self.move
        if injector is not None:
            stall = injector.stall_record(now)
            clock = injector.now
            end = min(end, clock if clock > now + 1e-9 else injector.next_change(now))
        if move is not None and stall is None:
            owed = move.resend_seconds
            if owed <= 1e-9:
                owed = move.migration.seconds_to_round_end
            end = min(end, now + max(owed, 1e-9))
        return end, stall

    def spend(self, now: float, until: float, commit=None) -> float:
        """Spend ``now`` to ``until`` on the move in flight, slice by
        slice, each from the injector advanced to its start; returns
        where it stopped (early, where the move finishes).  A round whose
        clean copy arrives goes to ``commit(round, time)``, and a re-sent
        one is then marked recovered."""
        move, injector = self.move, self.injector
        while now < until - 1e-9 and not move.finished:
            if injector is not None:
                injector.advance(now)
            end, stall = self.next_slice(now, until)
            for round_, record in move.progress(end - now, end, stall, self):
                if commit is not None:
                    commit(round_, end)
                if record is not None:
                    injector.mark_recovered(record, end)
            now = end
        return now

    def confirm(self, now: float) -> None:
        """At a planning boundary that left no move in flight, every
        crash the injector handled is recovered
        (:meth:`~repro.faults.FaultInjector.confirm_recovery`)."""
        if self.move is None and self.injector is not None:
            self.injector.confirm_recovery(now)

    def step_slot(self, slot_seconds: float, now: float) -> Tuple[float, int]:
        """:meth:`Reconfiguration.step_slot` across the slot ending at
        ``now``, then :meth:`settle` a move that is done."""
        sample = self.move.step_slot(slot_seconds)
        if self.move.migration.done:
            self.settle(now)
        return sample

    def settle(self, now: float) -> Optional[str]:
        """Complete the move: its target is the steady size."""
        move, self.move = self.move, None
        self.machines = move.after
        return move.complete(now)

    def abort(self, now: float, reason: str) -> Optional[str]:
        """Abort the move in flight, if any.  ``machines`` is left as it
        was: the loop knows what its machines still hold."""
        move, self.move = self.move, None
        return move.abort(now, reason) if move else None

    def blank(self) -> Reconfiguration:
        """A move to restore a checkpointed one into."""
        return Reconfiguration(self.config, 1, 2, 1.0, self._telemetry)


class ClusterMigrator:
    """Drives bucket-accurate migrations on a row-level cluster.

    Scale-out: provision the new nodes, compute a balanced bucket plan
    over old + new partitions, build the machine schedule, and commit
    each machine pair's buckets when its transfer completes.  Scale-in is
    symmetric (retiring nodes are drained, then decommissioned).

    ``injector`` attaches the chaos layer (to :attr:`allocation`):
    migration-stall windows freeze progress until the watchdog re-drives
    them, and completed rounds may arrive corrupted, costing a re-send
    before their bucket moves commit; ``config.faults`` is the retry
    policy.
    """

    def __init__(
        self,
        cluster: Cluster,
        config: PStoreConfig,
        chunk_kb: Optional[float] = None,
        telemetry=None,
        injector=None,
    ):
        self.cluster = cluster
        self.config = config
        self.chunk_kb = config.chunk_kb if chunk_kb is None else chunk_kb
        if self.chunk_kb <= 0:
            raise MigrationError("chunk_kb must be positive")
        self._telemetry = telemetry if telemetry is not None else get_telemetry()
        #: The host sets its cap as the pool.
        self.allocation = Allocation(
            config, cluster.n_nodes, self._telemetry, injector=injector
        )
        self._pair_buckets: Dict[Tuple[int, int], List[BucketMove]] = {}
        #: Cumulative simulated seconds this migrator has been advanced;
        #: the timeline used for migrate.round spans and duration metrics.
        self._sim_time = 0.0
        self._round_started_at = 0.0
        self._rounds_committed = 0
        self.aborted_moves = 0

    @property
    def sim_time(self) -> float:
        """The migrator's simulated clock (seconds): every ``advance``
        moves it on, to where the move completes at the latest, and
        telemetry stamps moves with it."""
        return self._sim_time

    @property
    def active(self) -> Optional[ActiveMigration]:
        return self.allocation.move.migration if self.migrating else None

    @property
    def migrating(self) -> bool:
        return self.allocation.migrating

    def start_move(
        self, target_nodes: int, decision: ScaleDecision = NO_ACTION
    ) -> ActiveMigration:
        """Begin reconfiguring the cluster to ``target_nodes`` machines,
        started by :meth:`Allocation.start` at ``decision``'s rate and
        parented on it."""
        if self.migrating:
            raise MigrationError("a migration is already in progress")
        before = self.cluster.n_nodes
        after = target_nodes
        if after < 1:
            raise MigrationError("target_nodes must be >= 1")
        if after == before:
            raise MigrationError("target equals current size; nothing to do")

        nodes = [n.node_id for n in self.cluster.nodes]
        newcomers = (
            [n.node_id for n in self.cluster.add_nodes(after - before)]
            if after > before else []
        )
        move = self.allocation.start(
            after, decision, self._sim_time,
            # A B -> A schedule has max(min(B, A), |A - B|) rounds (Sec. 4.4.1).
            {"rounds": max(min(before, after), abs(after - before))},
            chunk_kb=self.chunk_kb,
            database_kb=max(self.cluster.total_data_kb, 1.0),
            nodes=nodes,
            newcomers=newcomers,
        )
        node_map = move.migration.node_map
        node_by_id = {n.node_id: n for n in self.cluster.nodes}
        target_partitions = [
            pid for logical in range(after)
            for pid in node_by_id[node_map[logical]].partition_ids
        ]
        plan = make_reconfiguration_plan(self.cluster.plan, target_partitions)
        node_of_partition = {
            pid: node.node_id
            for node in self.cluster.nodes
            for pid in node.partition_ids
        }
        self._pair_buckets = plan.moves_by_node_pair(node_of_partition)
        self._round_started_at = self._sim_time
        self._rounds_committed = 0
        return move.migration

    def advance(self, dt: float) -> bool:
        """Advance the active migration by ``dt`` seconds, or until it
        completes; returns True when it does.

        The time goes by the allocation's :meth:`Allocation.spend`, so
        bucket moves commit once a clean copy of their round has landed,
        stamped where it lands.
        """
        move = self.allocation.move
        if move is None:
            raise MigrationError("no active migration")
        if dt < 0:
            raise MigrationError("dt must be non-negative")
        self._sim_time = self.allocation.spend(
            self._sim_time, self._sim_time + dt, self._commit_round
        )
        if move.finished:
            self.allocation.settle(self._sim_time)
            self._finish(move.retiring_nodes)
            return True
        return False

    def abort(self, reason: str = "node failure") -> None:
        """Cancel the in-flight migration without completing it.

        Bucket moves already committed stay committed (the plan is always
        consistent); pending pair transfers are dropped, and retiring
        nodes remain active since they may still own buckets, as do the
        newcomers: the allocation is every node of the cluster.  The
        controller is expected to re-plan from the resulting topology.
        """
        if not self.migrating:
            return
        self.aborted_moves += 1
        self.allocation.abort(self._sim_time, reason)
        self.allocation.machines = self.cluster.n_nodes
        self._pair_buckets = {}

    def fail_node(self, node_id: int) -> int:
        """A crash takes ``node_id`` out of the cluster, its buckets
        re-homed onto the survivors (:meth:`Cluster.fail_node`), and the
        allocation shrinks to them; returns how many are left.  This is
        the ``drop_node`` step of
        :meth:`~repro.faults.FaultInjector.handle_crashes`."""
        self.allocation.machines = self.cluster.fail_node(node_id)["survivors"]
        return self.allocation.machines

    def _commit_round(self, round_: Tuple[Transfer, ...], now: float) -> None:
        # Bracket the commit itself rather than diffing against a
        # start-of-move snapshot: live workload legitimately changes row
        # counts *between* advances, but a bucket move must never.
        check_rows = invariants.enabled(invariants.CHEAP)
        before = invariants.snapshot_row_counts(self.cluster) if check_rows else None
        for transfer in round_:
            self._commit_transfer(transfer)
        if check_rows:
            invariants.check_row_conservation(
                self.cluster, before,
                "ClusterMigrator.commit", time=now,
            )
        tel = self._telemetry
        if tel.enabled:
            # A stall or a re-send before the landing is inside the
            # round's window.
            tel.tracer.record(
                "migrate.round",
                self._round_started_at,
                now,
                round=self._rounds_committed,
                transfers=len(round_),
            )
            tel.chronicle.record(
                "migration.round",
                time=now,
                parent=self.allocation.move.record_id,
                round=self._rounds_committed,
                transfers=len(round_),
            )
            self._round_started_at = now
        self._rounds_committed += 1

    # ------------------------------------------------------------------

    def _commit_transfer(self, transfer: Transfer) -> None:
        node_map = self.allocation.move.migration.node_map
        src_node = node_map[transfer.sender]
        dst_node = node_map[transfer.receiver]
        for move in self._pair_buckets.pop((src_node, dst_node), []):
            self.cluster.move_bucket(move.bucket, move.destination_partition)

    def _finish(self, retiring: List[int]) -> None:
        check_rows = invariants.enabled(invariants.CHEAP)
        before = invariants.snapshot_row_counts(self.cluster) if check_rows else None
        # Commit any residual bucket moves (pairs whose buckets were not
        # perfectly covered by the machine schedule's transfers).
        for moves in self._pair_buckets.values():
            for move in moves:
                self.cluster.move_bucket(move.bucket, move.destination_partition)
        self._pair_buckets = {}
        self.cluster.remove_nodes(retiring)
        if check_rows:
            invariants.check_row_conservation(
                self.cluster, before,
                "ClusterMigrator.finish", time=self._sim_time,
            )
        if invariants.enabled(invariants.EXPENSIVE):
            invariants.check_bucket_map_agreement(
                self.cluster, "ClusterMigrator.finish", time=self._sim_time
            )
