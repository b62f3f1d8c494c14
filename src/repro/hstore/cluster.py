"""The shared-nothing cluster: nodes, partitions, plan, and routing.

Data placement follows the E-Store/Squall design: the hash space of each
partitioning key is divided into a fixed number of fine-grained *buckets*
(virtual partitions), and a :class:`PartitionPlan` maps every bucket to a
physical partition.  Reconfiguration means re-mapping buckets and moving
their rows; routing a transaction means hashing its partitioning key to a
bucket and looking up the owning partition.

The cluster can grow (``add_nodes``) and shrink (``remove_nodes``); the
Squall-like migrator in :mod:`repro.squall` produces and executes the
bucket moves needed to rebalance around such changes.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import CatalogError, RoutingError
from .catalog import Schema
from .hashing import bucket_for_key
from .node import Node
from .partition import Partition

#: Default number of hash buckets (fine-grained migration granules).
DEFAULT_BUCKETS = 1024


class PartitionPlan:
    """Mapping from hash bucket to physical partition id."""

    def __init__(self, assignment: Sequence[int]):
        if len(assignment) == 0:
            raise CatalogError("partition plan must cover at least one bucket")
        self._assignment = np.asarray(assignment, dtype=np.int64).copy()
        if np.any(self._assignment < 0):
            raise CatalogError("partition ids must be >= 0")

    @classmethod
    def round_robin(
        cls, n_buckets: int, partition_ids: Sequence[int]
    ) -> "PartitionPlan":
        """Spread buckets evenly over the given partitions, round-robin."""
        if not partition_ids:
            raise CatalogError("need at least one partition")
        ids = np.asarray(sorted(partition_ids), dtype=np.int64)
        return cls(ids[np.arange(n_buckets) % len(ids)])

    @property
    def n_buckets(self) -> int:
        return int(self._assignment.size)

    def owner(self, bucket: int) -> int:
        if not 0 <= bucket < self.n_buckets:
            raise RoutingError(f"bucket {bucket} out of range")
        return int(self._assignment[bucket])

    def buckets_of(self, partition_id: int) -> List[int]:
        return [int(b) for b in np.nonzero(self._assignment == partition_id)[0]]

    @property
    def partition_ids(self) -> List[int]:
        return [int(p) for p in np.unique(self._assignment)]

    def counts(self) -> Dict[int, int]:
        """Buckets per partition."""
        ids, counts = np.unique(self._assignment, return_counts=True)
        return {int(i): int(c) for i, c in zip(ids, counts)}

    def with_move(self, bucket: int, new_partition: int) -> "PartitionPlan":
        """Functional single-bucket move (used by tests)."""
        updated = self._assignment.copy()
        updated[bucket] = new_partition
        return PartitionPlan(updated)

    def assignment_array(self) -> np.ndarray:
        return self._assignment.copy()

    def diff(self, target: "PartitionPlan") -> List[Tuple[int, int, int]]:
        """Buckets that change owner: list of (bucket, source, destination)."""
        if target.n_buckets != self.n_buckets:
            raise CatalogError("plans cover different bucket counts")
        moved = np.nonzero(self._assignment != target._assignment)[0]
        return [
            (int(b), int(self._assignment[b]), int(target._assignment[b]))
            for b in moved
        ]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartitionPlan):
            return NotImplemented
        return np.array_equal(self._assignment, other._assignment)


class Cluster:
    """A set of nodes hosting partitions, with bucket-level routing.

    All DML goes through the cluster so it can maintain the per-bucket key
    index that migration relies on.
    """

    def __init__(
        self,
        schema: Schema,
        n_nodes: int,
        partitions_per_node: int = 6,
        n_buckets: int = DEFAULT_BUCKETS,
    ):
        if n_nodes < 1:
            raise CatalogError("cluster needs at least one node")
        if partitions_per_node < 1:
            raise CatalogError("partitions_per_node must be >= 1")
        if n_buckets < partitions_per_node * n_nodes:
            raise CatalogError(
                "need at least one bucket per partition "
                f"({n_buckets} buckets < {partitions_per_node * n_nodes} partitions)"
            )
        self.schema = schema
        self.partitions_per_node = partitions_per_node
        self.n_buckets = n_buckets
        self._partitions: Dict[int, Partition] = {}
        self._nodes: Dict[int, Node] = {}
        self._next_node_id = 0
        self._next_partition_id = 0
        for _ in range(n_nodes):
            self._create_node()
        self.plan = PartitionPlan.round_robin(
            n_buckets, list(self._partitions.keys())
        )
        # bucket -> table -> set of primary keys resident in that bucket.
        self._bucket_keys: Dict[int, Dict[str, Set[Any]]] = {
            b: {t.name: set() for t in schema} for b in range(n_buckets)
        }
        # Per-bucket transaction counters (hot-bucket detection).
        self._bucket_accesses = np.zeros(n_buckets, dtype=np.int64)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def _create_node(self) -> Node:
        partitions = []
        for _ in range(self.partitions_per_node):
            partition = Partition(self._next_partition_id, self.schema)
            self._partitions[partition.partition_id] = partition
            partitions.append(partition)
            self._next_partition_id += 1
        node = Node(self._next_node_id, partitions)
        self._nodes[node.node_id] = node
        self._next_node_id += 1
        return node

    @property
    def nodes(self) -> List[Node]:
        return [self._nodes[nid] for nid in sorted(self._nodes) if self._nodes[nid].active]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def partition_ids(self) -> List[int]:
        """Partitions on active nodes."""
        out: List[int] = []
        for node in self.nodes:
            out.extend(node.partition_ids)
        return sorted(out)

    def partition(self, partition_id: int) -> Partition:
        try:
            return self._partitions[partition_id]
        except KeyError:
            raise CatalogError(f"unknown partition {partition_id}") from None

    def node_of_partition(self, partition_id: int) -> Node:
        for node in self._nodes.values():
            if node.hosts(partition_id):
                return node
        raise CatalogError(f"partition {partition_id} is not hosted anywhere")

    def add_nodes(self, count: int) -> List[Node]:
        """Provision ``count`` new (empty) nodes; routing is unchanged
        until a reconfiguration assigns buckets to their partitions."""
        if count < 1:
            raise CatalogError("count must be >= 1")
        return [self._create_node() for _ in range(count)]

    def remove_nodes(self, node_ids: Iterable[int]) -> None:
        """Decommission nodes; they must have been drained of buckets."""
        for node_id in node_ids:
            node = self._nodes.get(node_id)
            if node is None or not node.active:
                raise CatalogError(f"no active node {node_id}")
            for pid in node.partition_ids:
                if self.plan.buckets_of(pid):
                    raise CatalogError(
                        f"node {node_id} still owns buckets on partition {pid}; "
                        "drain it before removal"
                    )
            node.active = False

    def fail_node(self, node_id: int) -> Dict[str, Any]:
        """Kill a node and recover its buckets onto the survivors.

        Models crash recovery from replicas: every bucket owned by the
        dead node is immediately re-homed round-robin across the
        surviving partitions (rows included, so no data is lost), and the
        node is marked failed.  Returns a summary for logging/telemetry:
        ``{"node": id, "buckets_moved": n, "kb_recovered": kB,
        "survivors": n_nodes}``.
        """
        node = self._nodes.get(node_id)
        if node is None or not node.active:
            raise CatalogError(f"no active node {node_id}")
        survivors = [n for n in self.nodes if n.node_id != node_id]
        if not survivors:
            raise CatalogError(
                f"cannot fail node {node_id}: it is the last active node"
            )
        target_partitions: List[int] = []
        for survivor in survivors:
            target_partitions.extend(survivor.partition_ids)
        target_partitions.sort()
        buckets_moved = 0
        kb_recovered = 0.0
        for pid in node.partition_ids:
            for bucket in self.plan.buckets_of(pid):
                dest = target_partitions[buckets_moved % len(target_partitions)]
                kb_recovered += self.move_bucket(bucket, dest)
                buckets_moved += 1
        node.mark_failed()
        return {
            "node": node_id,
            "buckets_moved": buckets_moved,
            "kb_recovered": kb_recovered,
            "survivors": len(survivors),
        }

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def bucket_of(self, key: Any) -> int:
        return bucket_for_key(key, self.n_buckets)

    def route(self, key: Any) -> Partition:
        """The partition currently owning ``key``'s bucket."""
        return self.partition(self.plan.owner(self.bucket_of(key)))

    def record_bucket_access(self, bucket: int, n: int = 1) -> None:
        """Count a transaction against a bucket (hot-bucket detection)."""
        if not 0 <= bucket < self.n_buckets:
            raise RoutingError(f"bucket {bucket} out of range")
        self._bucket_accesses[bucket] += n

    def bucket_access_counts(self) -> np.ndarray:
        """Per-bucket transaction counts since the cluster was built."""
        return self._bucket_accesses.copy()

    def partition_access_counts(self) -> Dict[int, int]:
        """Transactions counted against each active partition: the
        bucket counters summed by current owner."""
        per_owner = np.bincount(
            self.plan.assignment_array(),
            weights=self._bucket_accesses,
            minlength=self._next_partition_id,
        )
        return {pid: int(per_owner[pid]) for pid in self.partition_ids}

    # ------------------------------------------------------------------
    # DML (maintains the bucket index)
    # ------------------------------------------------------------------

    def _partition_and_bucket(self, table_name: str, part_key: Any):
        bucket = self.bucket_of(part_key)
        return self.partition(self.plan.owner(bucket)), bucket

    def insert(self, table_name: str, row: Mapping[str, Any]) -> None:
        table = self.schema.table(table_name)
        part_key = row.get(table.partition_key)
        if part_key is None:
            raise RoutingError(
                f"row for {table_name!r} is missing partition key "
                f"{table.partition_key!r}"
            )
        partition, bucket = self._partition_and_bucket(table_name, part_key)
        partition.insert(table_name, row)
        self._bucket_keys[bucket][table_name].add(row[table.primary_key])

    def upsert(self, table_name: str, row: Mapping[str, Any]) -> bool:
        table = self.schema.table(table_name)
        part_key = row.get(table.partition_key)
        if part_key is None:
            raise RoutingError(
                f"row for {table_name!r} is missing partition key "
                f"{table.partition_key!r}"
            )
        partition, bucket = self._partition_and_bucket(table_name, part_key)
        created = partition.upsert(table_name, row)
        self._bucket_keys[bucket][table_name].add(row[table.primary_key])
        return created

    def get(self, table_name: str, key: Any) -> Optional[Dict[str, Any]]:
        partition, _ = self._partition_and_bucket(table_name, key)
        return partition.get(table_name, key)

    def update(self, table_name: str, key: Any, changes: Mapping[str, Any]) -> None:
        partition, _ = self._partition_and_bucket(table_name, key)
        partition.update(table_name, key, changes)

    def delete(self, table_name: str, key: Any) -> bool:
        partition, bucket = self._partition_and_bucket(table_name, key)
        existed = partition.delete(table_name, key)
        if existed:
            self._bucket_keys[bucket][table_name].discard(key)
        return existed

    # ------------------------------------------------------------------
    # Migration support
    # ------------------------------------------------------------------

    def move_bucket(self, bucket: int, destination_partition: int) -> float:
        """Atomically move one bucket's rows; returns the kB moved.

        This is the primitive the Squall-like migrator drives; in the real
        system a bucket would move in multiple chunks, which the migrator
        models in simulated time before committing the move here.
        """
        source_id = self.plan.owner(bucket)
        if source_id == destination_partition:
            return 0.0
        if destination_partition not in self._partitions:
            raise CatalogError(f"unknown partition {destination_partition}")
        source = self.partition(source_id)
        destination = self.partition(destination_partition)
        moved_kb = 0.0
        for table in self.schema:
            keys = self._bucket_keys[bucket][table.name]
            rows = source.extract_rows(table.name, keys)
            destination.install_rows(table.name, rows)
            moved_kb += len(rows) * table.avg_row_kb
        self.plan = self.plan.with_move(bucket, destination_partition)
        return moved_kb

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    @property
    def total_data_kb(self) -> float:
        return sum(p.data_kb for p in self._partitions.values())

    def data_fractions_by_node(self) -> Dict[int, float]:
        """Fraction of the database resident on each active node."""
        total = self.total_data_kb
        if total <= 0:
            share = 1.0 / max(1, self.n_nodes)
            return {node.node_id: share for node in self.nodes}
        return {node.node_id: node.data_kb / total for node in self.nodes}

    def bucket_fractions_by_node(self) -> Dict[int, float]:
        """Fraction of hash buckets owned by each active node.

        With a uniform workload, a node's bucket fraction approximates
        both its data fraction and its load fraction — this drives the
        effective-capacity computation during migrations.
        """
        counts = self.plan.counts()
        out: Dict[int, float] = {}
        for node in self.nodes:
            owned = sum(counts.get(pid, 0) for pid in node.partition_ids)
            out[node.node_id] = owned / self.n_buckets
        return out

    def access_skew(self) -> Tuple[float, float]:
        """(max-over-mean excess, std-over-mean) of partition accesses.

        Sec. 8.1 reports the hottest partition at +10.15% over the mean
        with a standard deviation of 2.62% for the B2W workload.
        """
        counts = np.array(
            list(self.partition_access_counts().values()), dtype=float
        )
        mean = counts.mean()
        if mean <= 0:
            return 0.0, 0.0
        return float(counts.max() / mean - 1.0), float(counts.std() / mean)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Cluster(nodes={self.n_nodes}, partitions={len(self.partition_ids)}, "
            f"buckets={self.n_buckets}, data={self.total_data_kb:.0f}kB)"
        )
