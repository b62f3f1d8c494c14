"""Skew-aware rebalancing — the paper's proposed future work.

The conclusion of the paper: "Future work should investigate combining
these ideas to build a system which uses predictive modeling for
proactive reconfiguration, but also manages skew [as E-Store and Clay
do]."  This module implements that combination at bucket granularity:

1. per-bucket access counters (maintained by the routing layer) feed a
   :func:`hot_bucket_report`;
2. when one partition's load share exceeds a threshold,
   :func:`make_skew_rebalance_plan` moves its hottest buckets to the
   least-loaded partitions — balancing *load*, not just data volume,
   without changing the cluster size.

This is the E-Store idea (move hot data away from hot partitions)
operating inside P-Store's bucket/plan machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..errors import MigrationError
from ..hstore.cluster import Cluster, PartitionPlan
from .plan import BucketMove, ReconfigurationPlan


@dataclass(frozen=True)
class HotBucketReport:
    """Load distribution at bucket and partition granularity."""

    total_accesses: int
    partition_load: Dict[int, int]      # partition -> accesses
    hottest_partition: int
    hottest_share: float                # fraction of total load
    hot_buckets: Tuple[Tuple[int, int], ...]  # (bucket, accesses), desc


def hot_bucket_report(cluster: Cluster, top_k: int = 10) -> HotBucketReport:
    """Summarise per-bucket access counts into a skew report."""
    if top_k < 1:
        raise MigrationError("top_k must be >= 1")
    counts = cluster.bucket_access_counts()
    total = int(counts.sum())
    partition_load = cluster.partition_access_counts()
    if total > 0:
        hottest = max(partition_load, key=partition_load.get)
        hottest_share = partition_load[hottest] / total
    else:
        hottest = min(partition_load) if partition_load else -1
        hottest_share = 0.0
    order = np.argsort(counts)[::-1][:top_k]
    hot = tuple(
        (int(b), int(counts[b])) for b in order if counts[b] > 0
    )
    return HotBucketReport(
        total_accesses=total,
        partition_load=partition_load,
        hottest_partition=hottest,
        hottest_share=hottest_share,
        hot_buckets=hot,
    )


def make_skew_rebalance_plan(
    cluster: Cluster,
    max_moves: int = 8,
    target_share_factor: float = 1.10,
) -> ReconfigurationPlan:
    """Plan bucket moves that flatten the *load* distribution.

    Greedy E-Store-style placement: walk buckets from hottest to
    coldest; whenever the owning partition's load exceeds
    ``target_share_factor`` times the fair share, reassign the bucket to
    the currently coldest partition.  At most ``max_moves`` buckets move
    (live migration is not free), and the cluster size is unchanged.
    """
    if max_moves < 1:
        raise MigrationError("max_moves must be >= 1")
    if target_share_factor < 1.0:
        raise MigrationError("target_share_factor must be >= 1.0")
    counts = cluster.bucket_access_counts().astype(float)
    total = counts.sum()
    partitions = cluster.partition_ids
    if total <= 0 or len(partitions) < 2:
        return ReconfigurationPlan(
            current=cluster.plan, target=cluster.plan, moves=()
        )

    load: Dict[int, float] = {
        pid: float(n) for pid, n in cluster.partition_access_counts().items()
    }
    assignment = cluster.plan.assignment_array()
    fair = total / len(partitions)
    budget = fair * target_share_factor

    moves: List[BucketMove] = []
    for bucket in np.argsort(counts)[::-1]:
        if len(moves) >= max_moves or counts[bucket] <= 0:
            break
        source = int(assignment[bucket])
        if load[source] <= budget:
            continue
        coldest = min(partitions, key=lambda pid: load[pid])
        if coldest == source:
            continue
        # Only move if it actually improves balance.
        if load[coldest] + counts[bucket] >= load[source]:
            continue
        moves.append(
            BucketMove(
                bucket=int(bucket),
                source_partition=source,
                destination_partition=coldest,
            )
        )
        load[source] -= counts[bucket]
        load[coldest] += counts[bucket]
        assignment[bucket] = coldest

    return ReconfigurationPlan(
        current=cluster.plan,
        target=PartitionPlan(assignment),
        moves=tuple(moves),
    )


def apply_rebalance(cluster: Cluster, plan: ReconfigurationPlan) -> float:
    """Commit a skew-rebalance plan immediately; returns kB moved.

    Skew moves are small (a few hot buckets), so unlike full
    reconfigurations they are applied directly rather than scheduled
    through the machine-level migrator.
    """
    moved_kb = 0.0
    for move in plan.moves:
        moved_kb += cluster.move_bucket(move.bucket, move.destination_partition)
    return moved_kb
