"""Squall-like live-migration subsystem.

Computes bucket-level reconfiguration plans, orders transfers with the
paper's three-case parallel schedule (Sec. 4.4.1), and executes moves in
simulated time — either standalone (capacity accounting) or against a
row-level cluster (bucket-accurate data movement).
"""

from .migrator import (
    CHUNK_SPACING_SECONDS,
    DEFAULT_CHUNK_KB,
    ActiveMigration,
    ClusterMigrator,
    chunk_spacing_seconds,
)
from .plan import (
    BucketMove,
    ReconfigurationPlan,
    balanced_target,
    make_reconfiguration_plan,
)
from .schedule import (
    MigrationSchedule,
    Transfer,
    build_migration_schedule,
    validate_schedule,
)

__all__ = [
    "ActiveMigration",
    "BucketMove",
    "CHUNK_SPACING_SECONDS",
    "ClusterMigrator",
    "DEFAULT_CHUNK_KB",
    "MigrationSchedule",
    "ReconfigurationPlan",
    "Transfer",
    "balanced_target",
    "build_migration_schedule",
    "chunk_spacing_seconds",
    "make_reconfiguration_plan",
    "validate_schedule",
]
