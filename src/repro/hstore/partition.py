"""A single data partition: an in-memory row store plus its data volume.

Partitions are the unit of parallelism in H-Store: each owns a disjoint
slice of every table and executes its transactions serially.  Here a
partition stores rows in per-table dictionaries keyed by primary key and
tracks its resident data volume (for migration chunk sizing).  Accesses
are counted per bucket by the cluster, not here.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from ..errors import CatalogError, TransactionAbort
from .catalog import Schema


class Partition:
    """In-memory store for one partition's slice of the database."""

    def __init__(self, partition_id: int, schema: Schema):
        if partition_id < 0:
            raise CatalogError("partition_id must be >= 0")
        self.partition_id = partition_id
        self.schema = schema
        self._rows: Dict[str, Dict[Any, Dict[str, Any]]] = {
            table.name: {} for table in schema
        }
        #: Resident data volume in kB (approximate, via Table.avg_row_kb).
        self.data_kb = 0.0

    # ------------------------------------------------------------------
    # Row operations
    # ------------------------------------------------------------------

    def _table_rows(self, table_name: str) -> Dict[Any, Dict[str, Any]]:
        try:
            return self._rows[table_name]
        except KeyError:
            raise CatalogError(f"unknown table {table_name!r}") from None

    def insert(self, table_name: str, row: Mapping[str, Any]) -> None:
        """Insert a validated row; aborts if the primary key exists."""
        table = self.schema.table(table_name)
        normalised = table.validate_row(row)
        key = normalised[table.primary_key]
        rows = self._table_rows(table_name)
        if key in rows:
            raise TransactionAbort(
                f"duplicate primary key {key!r} in table {table_name!r}"
            )
        rows[key] = normalised
        self.data_kb += table.avg_row_kb

    def upsert(self, table_name: str, row: Mapping[str, Any]) -> bool:
        """Insert or overwrite; returns True if a new row was created."""
        table = self.schema.table(table_name)
        normalised = table.validate_row(row)
        key = normalised[table.primary_key]
        rows = self._table_rows(table_name)
        created = key not in rows
        rows[key] = normalised
        if created:
            self.data_kb += table.avg_row_kb
        return created

    def get(self, table_name: str, key: Any) -> Optional[Dict[str, Any]]:
        """Fetch a row by primary key, or None."""
        row = self._table_rows(table_name).get(key)
        return dict(row) if row is not None else None

    def require(self, table_name: str, key: Any) -> Dict[str, Any]:
        """Fetch a row by primary key; aborts the transaction if missing."""
        row = self._table_rows(table_name).get(key)
        if row is None:
            raise TransactionAbort(
                f"no row with key {key!r} in table {table_name!r}"
            )
        return dict(row)

    def update(self, table_name: str, key: Any, changes: Mapping[str, Any]) -> None:
        """Apply column changes to an existing row; aborts if missing."""
        table = self.schema.table(table_name)
        rows = self._table_rows(table_name)
        if key not in rows:
            raise TransactionAbort(
                f"no row with key {key!r} in table {table_name!r}"
            )
        merged = dict(rows[key])
        merged.update(changes)
        rows[key] = table.validate_row(merged)

    def delete(self, table_name: str, key: Any) -> bool:
        """Delete a row; returns True if it existed."""
        table = self.schema.table(table_name)
        rows = self._table_rows(table_name)
        if key in rows:
            del rows[key]
            self.data_kb = max(0.0, self.data_kb - table.avg_row_kb)
            return True
        return False

    # ------------------------------------------------------------------
    # Bulk operations used by migration
    # ------------------------------------------------------------------

    def extract_rows(
        self, table_name: str, keys
    ) -> Dict[Any, Dict[str, Any]]:
        """Remove and return the rows with the given keys (migration send)."""
        table = self.schema.table(table_name)
        rows = self._table_rows(table_name)
        out: Dict[Any, Dict[str, Any]] = {}
        for key in keys:
            row = rows.pop(key, None)
            if row is not None:
                out[key] = row
                self.data_kb = max(0.0, self.data_kb - table.avg_row_kb)
        return out

    def install_rows(
        self, table_name: str, rows: Mapping[Any, Mapping[str, Any]]
    ) -> None:
        """Install migrated rows (migration receive); overwrites silently."""
        table = self.schema.table(table_name)
        store = self._table_rows(table_name)
        for key, row in rows.items():
            if key not in store:
                self.data_kb += table.avg_row_kb
            store[key] = dict(row)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def row_count(self, table_name: Optional[str] = None) -> int:
        if table_name is not None:
            return len(self._table_rows(table_name))
        return sum(len(rows) for rows in self._rows.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Partition(id={self.partition_id}, rows={self.row_count()}, "
            f"data={self.data_kb:.0f}kB)"
        )
