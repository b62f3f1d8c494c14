"""Tests for the schema catalog."""

import pytest

from repro.errors import CatalogError
from repro.hstore import Column, Schema, Table


def simple_table(**kwargs):
    defaults = dict(
        name="t",
        columns=[Column("id", "str"), Column("n", "int", nullable=True)],
        primary_key="id",
    )
    defaults.update(kwargs)
    return Table(**defaults)


class TestColumn:
    def test_valid_types(self):
        for ctype in ("int", "float", "str", "bool", "json"):
            Column("c", ctype)

    def test_unknown_type(self):
        with pytest.raises(CatalogError):
            Column("c", "blob")

    def test_invalid_name(self):
        with pytest.raises(CatalogError):
            Column("not a name", "int")

    def test_check_accepts_matching(self):
        Column("c", "int").check(5)
        Column("c", "str").check("x")
        Column("c", "json").check({"a": 1})
        Column("c", "json").check([1, 2])
        Column("c", "float").check(5)  # ints are valid floats

    def test_check_rejects_mismatch(self):
        with pytest.raises(CatalogError):
            Column("c", "int").check("5")
        with pytest.raises(CatalogError):
            Column("c", "int").check(True)  # bools are not ints
        with pytest.raises(CatalogError):
            Column("c", "str").check(5)

    def test_nullability(self):
        Column("c", "int", nullable=True).check(None)
        with pytest.raises(CatalogError):
            Column("c", "int").check(None)


class TestTable:
    def test_partition_key_defaults_to_primary(self):
        table = simple_table()
        assert table.partition_key == "id"

    def test_explicit_partition_key(self):
        table = Table(
            "t",
            [Column("id", "str"), Column("owner", "str")],
            primary_key="id",
            partition_key="owner",
        )
        assert table.partition_key == "owner"

    def test_duplicate_columns_rejected(self):
        with pytest.raises(CatalogError):
            Table("t", [Column("a", "int"), Column("a", "str")], primary_key="a")

    def test_unknown_primary_key(self):
        with pytest.raises(CatalogError):
            simple_table(primary_key="nope")

    def test_unknown_partition_key(self):
        with pytest.raises(CatalogError):
            simple_table(partition_key="nope")

    def test_no_columns(self):
        with pytest.raises(CatalogError):
            Table("t", [], primary_key="id")

    def test_bad_row_kb(self):
        with pytest.raises(CatalogError):
            simple_table(avg_row_kb=0.0)

    def test_validate_row_normalises_missing_nullable(self):
        row = simple_table().validate_row({"id": "x"})
        assert row == {"id": "x", "n": None}

    def test_validate_row_rejects_unknown_column(self):
        with pytest.raises(CatalogError):
            simple_table().validate_row({"id": "x", "extra": 1})

    def test_validate_row_requires_primary_key(self):
        with pytest.raises(CatalogError):
            simple_table().validate_row({"n": 2})

    def test_validate_row_type_checks(self):
        with pytest.raises(CatalogError):
            simple_table().validate_row({"id": "x", "n": "not-int"})


class TestSchema:
    def test_lookup(self):
        schema = Schema([simple_table()])
        assert schema.table("t").name == "t"
        assert "t" in schema
        assert len(schema) == 1

    def test_unknown_table(self):
        with pytest.raises(CatalogError):
            Schema([]).table("ghost")

    def test_duplicate_table(self):
        with pytest.raises(CatalogError):
            Schema([simple_table(), simple_table()])
