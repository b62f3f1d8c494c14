"""Runtime invariant library: the always-on correctness tier.

The reproduction has three engines that must agree (the per-transaction
engine, the analytic queueing engine, and the vectorized fast path) and
a migrator whose bucket moves must conserve every row.  This module
holds the cross-cutting consistency properties those components assert
*while running*, split into tiers:

``CHEAP`` (the default)
    O(machines)/O(partitions) checks at rare boundaries — row
    conservation across :class:`~repro.squall.migrator.ClusterMigrator`
    commits, migration data fractions summing to one, non-negative
    queue backlog, monotone simulated time, capacity accounting
    consistent with ``Q``/``Q̂``.  These stay on in production runs; the
    perf-regression harness budgets for them.
``EXPENSIVE``
    O(rows) cross-checks — full bucket-map/row-store agreement — run by
    the test suite and anyone debugging a divergence.

Every violation writes an ``invariant.violation`` record into the
telemetry chronicle (when recording) and raises
:class:`~repro.errors.InvariantViolation`, so disagreement is loud in
the moment and auditable afterwards.

Hot paths import this module directly (``from ..check import
invariants``) and guard each check with :func:`enabled`, which costs one
global read and one comparison when the tier is off.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Dict, Optional, Union

import numpy as np

from ..errors import InvariantViolation
from ..telemetry import get_telemetry

#: Check tiers, ordered: every tier includes the ones below it.
OFF, CHEAP, EXPENSIVE = 0, 1, 2

_LEVEL_NAMES = {"off": OFF, "cheap": CHEAP, "expensive": EXPENSIVE}

_level = CHEAP

#: Absolute tolerance for conserved float quantities (fraction sums,
#: capacity ratios).  Data fractions are O(1) sums of O(machines) terms,
#: so anything beyond a few ulps signals real accounting drift.
FRACTION_TOL = 1e-9
#: Relative tolerance of a simulated clock against the driven duration.
TIME_TOL = 1e-6


def _resolve(level: Union[int, str]) -> int:
    if isinstance(level, str):
        try:
            return _LEVEL_NAMES[level.lower()]
        except KeyError:
            raise InvariantViolation(
                f"unknown check level {level!r}; use one of "
                f"{sorted(_LEVEL_NAMES)}"
            ) from None
    if level not in (OFF, CHEAP, EXPENSIVE):
        raise InvariantViolation(f"check level must be 0, 1, or 2 (got {level})")
    return int(level)


def check_level() -> int:
    """The currently active tier (OFF, CHEAP, or EXPENSIVE)."""
    return _level


def set_check_level(level: Union[int, str]) -> int:
    """Set the active tier; accepts names or ints; returns the previous."""
    global _level
    previous = _level
    _level = _resolve(level)
    return previous


def enabled(tier: int) -> bool:
    """Whether checks of ``tier`` should run right now."""
    return _level >= tier


@contextmanager
def check_scope(level: Union[int, str]):
    """Temporarily run at a different tier (tests, debugging)."""
    previous = set_check_level(level)
    try:
        yield
    finally:
        set_check_level(previous)


def violated(
    name: str,
    message: str,
    time: Optional[float] = None,
    **context,
):
    """Report one invariant violation: chronicle record + raise."""
    tel = get_telemetry()
    if tel.enabled:
        tel.chronicle.record(
            "invariant.violation", time=time, name=name,
            message=message, **context,
        )
        tel.metrics.counter("check.invariant_violations").inc()
    raise InvariantViolation(f"{name}: {message}")


# ----------------------------------------------------------------------
# Cheap checks (boundary-rate, O(machines) / O(partitions))
# ----------------------------------------------------------------------


def check_fraction_conservation(
    fractions: np.ndarray, where: str, time: Optional[float] = None
) -> None:
    """Migration data fractions must be non-negative and sum to 1."""
    total = float(np.sum(fractions))
    if not math.isfinite(total) or abs(total - 1.0) > FRACTION_TOL:
        violated(
            "migration.fractions-sum",
            f"{where}: data fractions sum to {total!r}, expected 1.0",
            time=time, where=where, total=total,
        )
    smallest = float(np.min(fractions))
    if smallest < -FRACTION_TOL:
        violated(
            "migration.fractions-negative",
            f"{where}: smallest data fraction is {smallest!r}",
            time=time, where=where, smallest=smallest,
        )


def snapshot_row_counts(cluster) -> Dict[str, int]:
    """Rows per table across the whole cluster (active or not — a
    retiring node's rows still exist until its buckets drain)."""
    counts = {table.name: 0 for table in cluster.schema}
    for partition in cluster._partitions.values():
        for table in cluster.schema:
            counts[table.name] += partition.row_count(table.name)
    return counts


def check_row_conservation(
    cluster,
    baseline: Dict[str, int],
    where: str,
    time: Optional[float] = None,
) -> None:
    """No migration step may create or destroy rows."""
    current = snapshot_row_counts(cluster)
    if current != baseline:
        deltas = {
            name: current.get(name, 0) - baseline.get(name, 0)
            for name in set(baseline) | set(current)
            if current.get(name, 0) != baseline.get(name, 0)
        }
        violated(
            "migration.row-conservation",
            f"{where}: row counts changed by {deltas} during a migration",
            time=time, where=where, deltas={k: int(v) for k, v in deltas.items()},
        )


def check_nonnegative_backlog(
    backlog: np.ndarray, where: str, time: Optional[float] = None
) -> None:
    """Queue lengths (engine backlog) can never go negative."""
    smallest = float(np.min(backlog))
    if smallest < 0.0 or not math.isfinite(float(np.sum(backlog))):
        violated(
            "engine.negative-backlog",
            f"{where}: backlog has entry {smallest!r}",
            time=time, where=where, smallest=smallest,
        )


def check_time_accounting(advanced: float, expected: float, where: str) -> None:
    """Simulated clocks advance by exactly the driven duration (catches
    an engine block dropping or double-counting ticks)."""
    if abs(advanced - expected) > TIME_TOL * max(1.0, abs(expected)):
        violated(
            "sim.time-accounting",
            f"{where}: clock advanced {advanced!r}s for {expected!r}s of input",
            where=where, advanced=advanced, expected=expected,
        )


def check_capacity_accounting(
    machines: np.ndarray,
    eff_cap_target: np.ndarray,
    eff_cap_max: np.ndarray,
    migrating: np.ndarray,
    q: float,
    q_hat: float,
    where: str,
) -> None:
    """Capacity series must be consistent with ``Q``/``Q̂`` (Eq. 7).

    Out of a migration the effective capacity is exactly ``machines x
    Q`` (resp. ``Q̂``); during one it is bounded by the allocation; and
    the target/max series always stand in the ratio ``Q : Q̂``.
    """
    machines = np.asarray(machines, dtype=float)
    eff_q = np.asarray(eff_cap_target, dtype=float)
    eff_qhat = np.asarray(eff_cap_max, dtype=float)
    migrating = np.asarray(migrating, dtype=bool)
    if eff_q.size and float(np.min(eff_q)) <= 0.0:
        violated(
            "capacity.nonpositive",
            f"{where}: effective capacity must stay positive",
            where=where,
        )
    ratio_bad = np.abs(eff_qhat * q - eff_q * q_hat) > FRACTION_TOL * np.abs(
        eff_qhat * q
    )
    if bool(np.any(ratio_bad)):
        slot = int(np.argmax(ratio_bad))
        violated(
            "capacity.q-ratio",
            f"{where}: slot {slot} capacity ratio "
            f"{eff_qhat[slot]}/{eff_q[slot]} != Q_hat/Q = {q_hat}/{q}",
            where=where, slot=slot,
        )
    quiet = ~migrating
    off_grid = np.abs(eff_q[quiet] - machines[quiet] * q) > FRACTION_TOL * q * np.maximum(
        machines[quiet], 1.0
    )
    if bool(np.any(off_grid)):
        slot = int(np.flatnonzero(quiet)[np.argmax(off_grid)])
        violated(
            "capacity.machines-grid",
            f"{where}: slot {slot} has capacity {eff_q[slot]} for "
            f"{machines[slot]} machines at Q={q}",
            where=where, slot=slot,
        )


class MonotoneClock:
    """Asserts a stream of simulated timestamps never runs backwards."""

    def __init__(self, where: str, start: float = -math.inf):
        self.where = where
        self._last = start

    @property
    def last(self) -> float:
        return self._last

    def observe(self, now: float) -> float:
        if now < self._last:
            violated(
                "sim.time-regression",
                f"{self.where}: simulated time went {self._last!r} -> {now!r}",
                time=now, where=self.where, previous=self._last,
            )
        self._last = now
        return now


# ----------------------------------------------------------------------
# Expensive checks (O(rows), opt-in)
# ----------------------------------------------------------------------


def check_bucket_map_agreement(
    cluster, where: str, time: Optional[float] = None
) -> None:
    """Full bucket-map / row-store cross-check.

    Every key the bucket index attributes to a bucket must be resident
    on the partition the plan assigns that bucket to, every stored row
    must be accounted for by the index, and every owning partition must
    live on an active node.
    """
    hosted = {
        pid for node in cluster.nodes for pid in node.partition_ids
    }
    for pid in cluster.plan.partition_ids:
        if pid not in hosted:
            violated(
                "cluster.orphan-partition",
                f"{where}: plan assigns buckets to partition {pid}, which is "
                "not hosted on any active node",
                time=time, where=where, partition=pid,
            )
    # Index -> store: indexed keys must exist on the owning partition.
    indexed_total = {table.name: 0 for table in cluster.schema}
    for bucket in range(cluster.n_buckets):
        owner = cluster.partition(cluster.plan.owner(bucket))
        for table in cluster.schema:
            keys = cluster._bucket_keys[bucket][table.name]
            indexed_total[table.name] += len(keys)
            for key in keys:
                if owner.get(table.name, key) is None:
                    violated(
                        "cluster.bucket-map-divergence",
                        f"{where}: bucket {bucket} indexes key {key!r} of "
                        f"table {table.name!r} on partition "
                        f"{owner.partition_id}, but the row is not there",
                        time=time, where=where, bucket=bucket,
                        table=table.name,
                    )
    # Store -> index: no unindexed rows hiding anywhere.
    stored_total = snapshot_row_counts(cluster)
    for table in cluster.schema:
        if stored_total[table.name] != indexed_total[table.name]:
            violated(
                "cluster.unindexed-rows",
                f"{where}: table {table.name!r} stores "
                f"{stored_total[table.name]} rows but the bucket index "
                f"accounts for {indexed_total[table.name]}",
                time=time, where=where, table=table.name,
            )
