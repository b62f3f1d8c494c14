"""Schema catalog for the simulated H-Store database.

H-Store splits every table horizontally by a *partitioning key*; rows are
assigned to data partitions by hashing that key.  The catalog declares
tables, their columns, primary keys and partitioning keys, and validates
rows against the declared columns.  It is intentionally minimal — just
enough relational machinery for the B2W benchmark and the tests — but it
enforces its invariants strictly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from ..errors import CatalogError

#: Column types understood by the catalog, with their Python checkers.
_TYPE_CHECKS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "json": lambda v: isinstance(v, (dict, list)),
}


@dataclass(frozen=True)
class Column:
    """One table column: a name, a type, and nullability."""

    name: str
    ctype: str
    nullable: bool = False

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise CatalogError(f"invalid column name {self.name!r}")
        if self.ctype not in _TYPE_CHECKS:
            raise CatalogError(
                f"unknown column type {self.ctype!r}; expected one of "
                f"{sorted(_TYPE_CHECKS)}"
            )

    def check(self, value: Any) -> None:
        """Raise :class:`CatalogError` if ``value`` doesn't fit the column."""
        if value is None:
            if not self.nullable:
                raise CatalogError(f"column {self.name!r} is not nullable")
            return
        if not _TYPE_CHECKS[self.ctype](value):
            raise CatalogError(
                f"column {self.name!r} expects {self.ctype}, got "
                f"{type(value).__name__}"
            )


class Table:
    """A table definition: columns, primary key, partitioning key.

    The primary key must be a single column (as in the B2W schema, where
    carts, checkouts and stock items are keyed by unique identifiers); the
    partitioning key defaults to the primary key, which is the common case
    for single-key OLTP workloads like B2W's.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: str,
        partition_key: Optional[str] = None,
        avg_row_kb: float = 1.0,
    ):
        if not name or not name.isidentifier():
            raise CatalogError(f"invalid table name {name!r}")
        if not columns:
            raise CatalogError(f"table {name!r} must have at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise CatalogError(f"table {name!r} has duplicate column names")
        by_name = {c.name: c for c in columns}
        if primary_key not in by_name:
            raise CatalogError(
                f"primary key {primary_key!r} is not a column of {name!r}"
            )
        partition_key = partition_key or primary_key
        if partition_key not in by_name:
            raise CatalogError(
                f"partition key {partition_key!r} is not a column of {name!r}"
            )
        if avg_row_kb <= 0:
            raise CatalogError("avg_row_kb must be positive")
        self.name = name
        self.columns: Tuple[Column, ...] = tuple(columns)
        self.columns_by_name: Dict[str, Column] = by_name
        self.primary_key = primary_key
        self.partition_key = partition_key
        #: Approximate row footprint, used to size migration chunks.
        self.avg_row_kb = avg_row_kb

    def validate_row(self, row: Mapping[str, Any]) -> Dict[str, Any]:
        """Check a row against the schema; returns a normalised dict."""
        unknown = set(row) - set(self.columns_by_name)
        if unknown:
            raise CatalogError(
                f"table {self.name!r} has no columns {sorted(unknown)}"
            )
        out: Dict[str, Any] = {}
        for column in self.columns:
            value = row.get(column.name)
            column.check(value)
            out[column.name] = value
        if out[self.primary_key] is None:
            raise CatalogError(
                f"row for {self.name!r} is missing primary key "
                f"{self.primary_key!r}"
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cols = ", ".join(c.name for c in self.columns)
        return f"Table({self.name}: {cols}; pk={self.primary_key})"


class Schema:
    """A named collection of tables."""

    def __init__(self, tables: Iterable[Table] = (), name: str = "schema"):
        self.name = name
        self._tables: Dict[str, Table] = {}
        for table in tables:
            self.add(table)

    def add(self, table: Table) -> "Schema":
        if table.name in self._tables:
            raise CatalogError(f"duplicate table {table.name!r}")
        self._tables[table.name] = table
        return self

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self):
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)
