"""Unit tests for hash indexes."""

import pytest

from repro.algebra.multiset import Multiset
from repro.algebra.schema import Schema
from repro.algebra.types import DataType
from repro.storage.index import HashIndex
from repro.storage.pager import IOCounter

SCHEMA = Schema.of(("A", DataType.INT), ("B", DataType.STRING))


@pytest.fixture
def index():
    counter = IOCounter()
    idx = HashIndex(SCHEMA, ("B",), counter)
    idx.rebuild(Multiset([(1, "x"), (2, "x"), (3, "y")]).items())
    return idx


class TestProbe:
    def test_probe_returns_matches(self, index):
        assert index.probe(("x",)).total() == 2

    def test_probe_charges(self, index):
        index.probe(("x",))
        snap = index._counter.snapshot()
        assert snap.index_reads == 1
        assert snap.tuple_reads == 2

    def test_probe_miss_charges_index_only(self, index):
        assert not index.probe(("zzz",))
        snap = index._counter.snapshot()
        assert snap.index_reads == 1 and snap.tuple_reads == 0

    def test_probe_free_uncharged(self, index):
        assert index.probe_free(("y",)).total() == 1
        assert index._counter.total == 0

    def test_probe_returns_copy(self, index):
        result = index.probe_free(("x",))
        result.add((9, "x"), 1)
        assert index.probe_free(("x",)).total() == 2


def _update(index, olds, news, inserts, deletes):
    """Apply a delta to a keyless index, whose buckets hold the rows."""
    return index.update(olds, news, inserts, deletes, (olds, news, inserts, deletes), False)


class TestMaintenance:
    def test_add_and_remove(self, index):
        assert _update(index, [], [], {(4, "y"): 1, (5, "z"): 1}, {}) == (2, 2)
        assert index.probe_free(("y",)).total() == 2
        assert _update(index, [], [], {}, {(4, "y"): 1}) == (1, 1)
        assert index.probe_free(("y",)).total() == 1

    def test_empty_bucket_dropped(self, index):
        _update(index, [], [], {}, {(3, "y"): 1})
        assert index.distinct_keys() == 1

    def test_modify_leaves_and_joins_in_delta_order(self, index):
        pages = _update(index, [(1, "x"), (3, "y")], [(7, "x"), (3, "z")], {}, {})
        assert pages == (3, 2)  # reads x, y, z; writes only the moved row's y and z
        assert index.probe_free(("x",)) == Multiset([(7, "x"), (2, "x")])
        # The pair keeping its key leaves and rejoins the end of its bucket.
        assert list(index.probe_free(("x",)).rows()) == [(2, "x"), (7, "x")]
        assert index._totals == {("x",): 2, ("z",): 1}
        assert index.distinct_keys() == 2  # the emptied "y" bucket is dropped
        assert index._counter.total == 0  # the owning relation charges

    def test_key_of(self, index):
        assert index.key_of((7, "q")) == ("q",)

    def test_multi_column_index(self):
        idx = HashIndex(SCHEMA, ("A", "B"), IOCounter())
        idx.rebuild(Multiset([(1, "x")]).items())
        assert idx.probe_free((1, "x")).total() == 1
