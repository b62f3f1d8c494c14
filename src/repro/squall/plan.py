"""Reconfiguration plans: which buckets move where.

The Scheduler component of P-Store (Sec. 6) "generates a new partition
plan in which all source machines send an equal amount of data to all
destination machines".  Here that means computing, for a new set of
active partitions, a target :class:`~repro.hstore.cluster.PartitionPlan`
that (a) spreads buckets evenly and (b) moves as few buckets as possible,
then grouping the moved buckets by (source node, destination node) so
the machine-level :mod:`~repro.squall.schedule` can order the transfers.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from ..errors import MigrationError
from ..hstore.cluster import PartitionPlan


@dataclass(frozen=True)
class BucketMove:
    """One bucket changing owner."""

    bucket: int
    source_partition: int
    destination_partition: int


@dataclass(frozen=True)
class ReconfigurationPlan:
    """A target partition plan plus the bucket moves that reach it."""

    current: PartitionPlan
    target: PartitionPlan
    moves: Tuple[BucketMove, ...]

    @property
    def n_moves(self) -> int:
        return len(self.moves)

    def moves_by_node_pair(
        self, node_of_partition: Mapping[int, int]
    ) -> Dict[Tuple[int, int], List[BucketMove]]:
        """Group moves by (source node, destination node)."""
        grouped: Dict[Tuple[int, int], List[BucketMove]] = defaultdict(list)
        for move in self.moves:
            src = node_of_partition[move.source_partition]
            dst = node_of_partition[move.destination_partition]
            if src != dst:
                grouped[(src, dst)].append(move)
        return dict(grouped)


def balanced_target(
    current: PartitionPlan, target_partitions: Sequence[int]
) -> PartitionPlan:
    """Even bucket assignment over ``target_partitions``, minimal movement.

    Partitions keep as many of their current buckets as their fair share
    allows; surplus buckets flow to partitions below their share.  Fair
    shares differ by at most one bucket.
    """
    targets = sorted(set(target_partitions))
    if not targets:
        raise MigrationError("target partition set is empty")
    n_buckets = current.n_buckets
    base, extra = divmod(n_buckets, len(targets))
    # Deterministic quotas: the first `extra` target partitions get one more.
    quota = {pid: base + (1 if i < extra else 0) for i, pid in enumerate(targets)}

    assignment = current.assignment_array()
    keep_count = {pid: 0 for pid in targets}
    surplus: List[int] = []
    for bucket in range(n_buckets):
        owner = int(assignment[bucket])
        if owner in quota and keep_count[owner] < quota[owner]:
            keep_count[owner] += 1
        else:
            surplus.append(bucket)

    receivers: List[int] = []
    for pid in targets:
        receivers.extend([pid] * (quota[pid] - keep_count[pid]))
    if len(receivers) != len(surplus):
        raise MigrationError(
            "internal error: surplus/deficit mismatch "
            f"({len(surplus)} vs {len(receivers)})"
        )
    new_assignment = assignment.copy()
    for bucket, pid in zip(surplus, receivers):
        new_assignment[bucket] = pid
    return PartitionPlan(new_assignment)


def make_reconfiguration_plan(
    current: PartitionPlan, target_partitions: Sequence[int]
) -> ReconfigurationPlan:
    """Plan the rebalance onto ``target_partitions``."""
    target = balanced_target(current, target_partitions)
    moves = tuple(
        BucketMove(bucket=b, source_partition=src, destination_partition=dst)
        for b, src, dst in current.diff(target)
    )
    return ReconfigurationPlan(current=current, target=target, moves=moves)
