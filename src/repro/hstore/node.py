"""A server node: a machine hosting ``P`` data partitions.

Nodes are the unit of elasticity — P-Store adds and removes whole
machines — while partitions are the unit of execution and migration.
The node object tracks which global partition ids it hosts and exposes
aggregate statistics over them.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..errors import CatalogError
from .partition import Partition


class Node:
    """One machine in the cluster."""

    def __init__(self, node_id: int, partitions: Sequence[Partition]):
        if node_id < 0:
            raise CatalogError("node_id must be >= 0")
        if not partitions:
            raise CatalogError("a node must host at least one partition")
        self.node_id = node_id
        self._partitions: Dict[int, Partition] = {
            p.partition_id: p for p in partitions
        }
        #: Set False when the node has been decommissioned by a scale-in.
        self.active = True
        #: Set True when the node died (crash fault) rather than being
        #: drained; a failed node is also inactive.
        self.failed = False

    @property
    def partition_ids(self) -> List[int]:
        return sorted(self._partitions)

    @property
    def partitions(self) -> List[Partition]:
        return [self._partitions[pid] for pid in self.partition_ids]

    def partition(self, partition_id: int) -> Partition:
        try:
            return self._partitions[partition_id]
        except KeyError:
            raise CatalogError(
                f"node {self.node_id} does not host partition {partition_id}"
            ) from None

    def hosts(self, partition_id: int) -> bool:
        return partition_id in self._partitions

    @property
    def data_kb(self) -> float:
        """Total resident data on this node."""
        return sum(p.data_kb for p in self._partitions.values())

    def mark_failed(self) -> None:
        """Take the node out of service as dead (crash, not drain)."""
        self.active = False
        self.failed = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "active" if self.active else ("failed" if self.failed else "retired")
        return (
            f"Node(id={self.node_id}, partitions={self.partition_ids}, {state})"
        )
