"""Unit tests for the database catalog and statistics collection."""

import pytest

from repro.algebra.schema import Schema
from repro.algebra.types import DataType
from repro.storage.database import Database
from repro.storage.relation import StorageError
from repro.storage.statistics import Catalog, TableStats

SCHEMA = Schema.of(("A", DataType.INT), ("B", DataType.STRING), keys=[["A"]])


class TestDatabase:
    def test_create_and_access(self):
        db = Database()
        db.create_relation("T", SCHEMA, [(1, "x"), (2, "y")], indexes=[["B"]])
        assert "T" in db
        assert db.relation("T").row_count == 2
        assert db.names == ("T",)

    def test_duplicate_rejected(self):
        db = Database()
        db.create_relation("T", SCHEMA)
        with pytest.raises(StorageError):
            db.create_relation("T", SCHEMA)

    def test_missing_rejected(self):
        with pytest.raises(StorageError):
            Database().relation("nope")

    def test_drop(self):
        db = Database()
        db.create_relation("T", SCHEMA)
        db.drop_relation("T")
        assert "T" not in db
        with pytest.raises(StorageError):
            db.drop_relation("T")

    def test_shared_counter(self):
        db = Database()
        db.create_relation("T", SCHEMA, [(1, "x")], indexes=[["A"]])
        db.relation("T").index_on(["A"]).probe((1,))
        assert db.counter.total == 2

    def test_relation_source_protocol(self):
        db = Database()
        db.create_relation("T", SCHEMA, [(1, "x")])
        ms = db.multiset("T")
        assert ms.total() == 1
        assert db.counter.total == 0  # uncharged


class TestTableStats:
    def test_distinct_of_independence(self):
        stats = TableStats(100, {"a": 10, "b": 5})
        assert stats.distinct_of(["a"]) == 10
        assert stats.distinct_of(["a", "b"]) == 50
        assert stats.distinct_of([]) == 1.0

    def test_distinct_capped_by_rows(self):
        stats = TableStats(100, {"a": 60, "b": 60})
        assert stats.distinct_of(["a", "b"]) == 100

    def test_unknown_column_assumed_unique(self):
        stats = TableStats(100, {})
        assert stats.distinct_of(["z"]) == 100

    def test_fanout(self):
        stats = TableStats(10000, {"d": 1000})
        assert stats.fanout(["d"]) == 10.0

    def test_fanout_empty_relation(self):
        assert TableStats(0, {}).fanout(["x"]) == 0.0

    def test_scaled(self):
        stats = TableStats(100, {"a": 80}).scaled(0.5)
        assert stats.rows == 50
        assert stats.distinct["a"] == 50


class TestCatalog:
    def test_from_database_exact(self):
        db = Database()
        db.create_relation("T", SCHEMA, [(1, "x"), (2, "x"), (3, "y")])
        catalog = Catalog.from_database(db)
        stats = catalog.get("T")
        assert stats.rows == 3
        assert stats.distinct["A"] == 3
        assert stats.distinct["B"] == 2

    def test_missing_stats(self):
        with pytest.raises(KeyError):
            Catalog().get("T")

    def test_paper_catalog_numbers(self):
        catalog = Catalog.paper_catalog()
        emp = catalog.get("Emp")
        assert emp.rows == 10000
        assert emp.fanout(["DName"]) == 10.0
        assert catalog.get("Dept").fanout(["DName"]) == 1.0

    def test_contains_and_set(self):
        catalog = Catalog()
        catalog.set("X", TableStats(1, {}))
        assert "X" in catalog and "Y" not in catalog
