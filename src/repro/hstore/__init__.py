"""H-Store-like partitioned main-memory DBMS substrate.

A faithful simulation of the parts of H-Store that P-Store's algorithms
interact with: a schema catalog, hash-partitioned in-memory row stores
grouped into partitions and nodes, bucket-based routing with an explicit
partition plan, stored-procedure transactions, and two execution engines
(row-level and analytic queueing).
"""

from .catalog import Column, Schema, Table
from .cluster import DEFAULT_BUCKETS, Cluster, PartitionPlan
from .engine import (
    CPU_SECONDS_PER_KB,
    DEFAULT_MU_PARTITION,
    MigrationInterference,
    QueueingEngine,
    TickStats,
    TransactionExecutor,
)
from .hashing import bucket_for_key, hash_key, murmur3_32
from .latency import (
    TRACKED_PERCENTILES,
    LatencyRecorder,
    PercentileSeries,
)
from .monitor import LoadMonitor
from .node import Node
from .partition import Partition
from .txn import StoredProcedure, Transaction, TxnContext, TxnResult

__all__ = [
    "CPU_SECONDS_PER_KB",
    "Cluster",
    "Column",
    "DEFAULT_BUCKETS",
    "DEFAULT_MU_PARTITION",
    "LatencyRecorder",
    "LoadMonitor",
    "MigrationInterference",
    "Node",
    "Partition",
    "PartitionPlan",
    "PercentileSeries",
    "QueueingEngine",
    "Schema",
    "StoredProcedure",
    "Table",
    "TickStats",
    "TRACKED_PERCENTILES",
    "Transaction",
    "TransactionExecutor",
    "TxnContext",
    "TxnResult",
    "bucket_for_key",
    "hash_key",
    "murmur3_32",
]
