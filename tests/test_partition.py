"""Tests for the in-memory partition row store."""

import pytest

from repro.errors import CatalogError, TransactionAbort
from repro.hstore import Column, Partition, Schema, Table


@pytest.fixture
def schema():
    return Schema(
        [
            Table(
                "items",
                [Column("id", "str"), Column("v", "int", nullable=True)],
                primary_key="id",
                avg_row_kb=2.0,
            )
        ]
    )


@pytest.fixture
def partition(schema):
    return Partition(0, schema)


class TestCrud:
    def test_insert_and_get(self, partition):
        partition.insert("items", {"id": "a", "v": 1})
        assert partition.get("items", "a") == {"id": "a", "v": 1}

    def test_get_missing_returns_none(self, partition):
        assert partition.get("items", "ghost") is None

    def test_get_returns_copy(self, partition):
        partition.insert("items", {"id": "a", "v": 1})
        row = partition.get("items", "a")
        row["v"] = 99
        assert partition.get("items", "a")["v"] == 1

    def test_duplicate_insert_aborts(self, partition):
        partition.insert("items", {"id": "a", "v": 1})
        with pytest.raises(TransactionAbort):
            partition.insert("items", {"id": "a", "v": 2})

    def test_upsert(self, partition):
        assert partition.upsert("items", {"id": "a", "v": 1}) is True
        assert partition.upsert("items", {"id": "a", "v": 2}) is False
        assert partition.get("items", "a")["v"] == 2

    def test_require_missing_aborts(self, partition):
        with pytest.raises(TransactionAbort):
            partition.require("items", "ghost")

    def test_update(self, partition):
        partition.insert("items", {"id": "a", "v": 1})
        partition.update("items", "a", {"v": 7})
        assert partition.get("items", "a")["v"] == 7

    def test_update_missing_aborts(self, partition):
        with pytest.raises(TransactionAbort):
            partition.update("items", "ghost", {"v": 7})

    def test_update_validates_types(self, partition):
        partition.insert("items", {"id": "a", "v": 1})
        with pytest.raises(CatalogError):
            partition.update("items", "a", {"v": "oops"})

    def test_delete(self, partition):
        partition.insert("items", {"id": "a", "v": 1})
        assert partition.delete("items", "a") is True
        assert partition.delete("items", "a") is False

    def test_unknown_table(self, partition):
        with pytest.raises(CatalogError):
            partition.get("ghost_table", "a")


class TestDataAccounting:
    def test_data_kb_tracks_inserts_and_deletes(self, partition):
        assert partition.data_kb == 0.0
        partition.insert("items", {"id": "a", "v": 1})
        partition.insert("items", {"id": "b", "v": 2})
        assert partition.data_kb == pytest.approx(4.0)
        partition.delete("items", "a")
        assert partition.data_kb == pytest.approx(2.0)

    def test_upsert_counts_only_new_rows(self, partition):
        partition.upsert("items", {"id": "a", "v": 1})
        partition.upsert("items", {"id": "a", "v": 2})
        assert partition.data_kb == pytest.approx(2.0)

    def test_row_count(self, partition):
        partition.insert("items", {"id": "a", "v": 1})
        assert partition.row_count() == 1
        assert partition.row_count("items") == 1


class TestBulkMigrationOps:
    def test_extract_then_install_round_trip(self, schema):
        src = Partition(0, schema)
        dst = Partition(1, schema)
        for i in range(10):
            src.insert("items", {"id": f"k{i}", "v": i})
        moved = src.extract_rows("items", [f"k{i}" for i in range(4)])
        dst.install_rows("items", moved)
        assert src.row_count() == 6
        assert dst.row_count() == 4
        assert dst.get("items", "k2")["v"] == 2
        assert src.data_kb == pytest.approx(12.0)
        assert dst.data_kb == pytest.approx(8.0)

    def test_extract_missing_keys_skipped(self, partition):
        partition.insert("items", {"id": "a", "v": 1})
        moved = partition.extract_rows("items", ["a", "ghost"])
        assert set(moved) == {"a"}


class TestStats:
    def test_negative_partition_id_rejected(self, schema):
        with pytest.raises(CatalogError):
            Partition(-1, schema)
