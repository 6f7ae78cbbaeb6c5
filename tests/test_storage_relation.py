"""Unit tests for stored relations: charging policy and key enforcement."""

import pytest

from repro.algebra.multiset import Multiset
from repro.algebra.schema import Schema
from repro.algebra.types import DataType, TypeError_
from repro.ivm.delta import Delta
from repro.storage.pager import IOCounter, IOStats
from repro.storage.relation import StorageError, StoredRelation

SCHEMA = Schema.of(
    ("K", DataType.INT), ("G", DataType.STRING), ("V", DataType.INT), keys=[["K"]]
)


@pytest.fixture
def relation():
    counter = IOCounter()
    rel = StoredRelation("T", SCHEMA, counter)
    rel.load([(i, f"g{i % 3}", i * 10) for i in range(9)])
    rel.create_index(["G"])
    return rel


class TestLoadAndRead:
    def test_load_is_free(self, relation):
        assert relation.counter.total == 0
        assert relation.row_count == 9

    def test_contents_uncharged(self, relation):
        assert relation.contents().total() == 9
        assert relation.counter.total == 0

    def test_scan_charges_per_tuple(self, relation):
        relation.scan()
        assert relation.counter.snapshot().tuple_reads == 9

    def test_lookup_charges_index_plus_matches(self, relation):
        result = relation.index_on(["G"]).probe(("g0",))
        assert result.total() == 3
        snap = relation.counter.snapshot()
        assert snap.index_reads == 1
        assert snap.tuple_reads == 3

    def test_lookup_without_index_raises(self, relation):
        with pytest.raises(StorageError):
            relation.lookup_many(["V"], [(10,)])

    @pytest.mark.parametrize("schema", [SCHEMA, Schema.of(*SCHEMA.columns)], ids=["keyed", "bag"])
    def test_load_validates_each_row_once(self, schema, monkeypatch):
        checked = []
        validate = Schema.validate_tuple

        def counting(self, values):
            checked.append(values)
            return validate(self, values)

        monkeypatch.setattr(Schema, "validate_tuple", counting)
        rel = StoredRelation("T", schema)
        rows = [(i, "g", i) for i in range(5)]
        rel.load(rows)
        assert sorted(checked) == rows
        assert sorted(rel.rows()) == rows

    @pytest.mark.parametrize("schema", [SCHEMA, Schema.of(*SCHEMA.columns)], ids=["keyed", "bag"])
    def test_mistyped_row_loads_nothing(self, schema):
        rel = StoredRelation("T", schema)
        rel.create_index(["G"])
        with pytest.raises(TypeError_):
            rel.load([(1, "a", 0), (2, "b", "x"), (3, "c", 0)])
        assert rel.row_count == 0
        assert list(rel.items()) == []
        assert rel.candidates({"G": "a"}) == (("G",), [])
        assert rel.counter.total == 0


class TestModifies:
    def test_paper_accounting_single_modify(self, relation):
        """1 index read + 1 tuple read + 1 tuple write = 3 (paper's N3)."""
        relation.apply_delta(Delta.modification([((0, "g0", 0), (0, "g0", 5))]))
        snap = relation.counter.snapshot()
        assert (snap.index_reads, snap.index_writes) == (1, 0)
        assert (snap.tuple_reads, snap.tuple_writes) == (1, 1)

    def test_batch_modify_same_key_one_index_page(self, relation):
        """10-tuple modify sharing one index key costs 21 (paper's N4)."""
        counter = IOCounter()
        rel = StoredRelation("U", Schema.of(("A", DataType.INT), ("G", DataType.STRING)), counter)
        rel.load([(i, "g") for i in range(10)])
        rel.create_index(["G"])
        rel.apply_delta(Delta.modification([((i, "g"), (i + 100, "g")) for i in range(10)]))
        snap = counter.snapshot()
        assert snap.total == 21

    def test_key_changing_modify_writes_index(self, relation):
        relation.apply_delta(Delta.modification([((0, "g0", 0), (0, "g1", 0))]))
        assert relation.counter.snapshot().index_writes > 0

    def test_modify_absent_tuple_rejected(self, relation):
        with pytest.raises(StorageError):
            relation.apply_delta(Delta.modification([((99, "g0", 0), (99, "g0", 1))]))

    def test_key_swap_batch_allowed(self):
        rel = StoredRelation("S", SCHEMA)
        rel.load([(1, "a", 0), (2, "b", 0)])
        rel.apply_delta(
            Delta.modification([((1, "a", 0), (2, "a", 0)), ((2, "b", 0), (1, "b", 0))])
        )
        assert rel.contents().count((2, "a", 0)) == 1

    def test_keyless_bucket_lists_its_rows_in_scan_order(self):
        """A delta that moves one row into a bucket and modifies another
        already in it: the pairs all leave and then join in delta order,
        as the relation's row counts do, so a probe meets the bucket's rows
        in the order a scan does."""
        schema = Schema.of(("K", DataType.INT), ("G", DataType.INT), ("V", DataType.INT))
        rel = StoredRelation("B", schema)
        rel.load([(1, 0, 0), (2, 1, 0), (3, 0, 0)])
        index = rel.create_index(["G"])
        rel.apply_delta(
            Delta.modification([((2, 1, 0), (2, 0, 0)), ((3, 0, 0), (3, 0, 1))])
        )
        scan = [row for row in rel.rows() if row[1] == 0]
        assert scan == [(1, 0, 0), (2, 0, 0), (3, 0, 1)]
        assert list(index.probe_free((0,)).rows()) == scan
        assert list(index.probe((0,)).rows()) == scan

    def test_modified_row_visible_in_index(self, relation):
        relation.apply_delta(Delta.modification([((0, "g0", 0), (0, "g1", 0))]))
        relation.counter.reset()
        assert (0, "g1", 0) in relation.index_on(["G"]).probe(("g1",))


class TestInsertDelete:
    def test_insert_charges_write_and_index(self, relation):
        relation.apply_delta(Delta.insertion([(100, "g9", 1)]))
        snap = relation.counter.snapshot()
        assert snap.tuple_writes == 1
        assert snap.index_reads == 1 and snap.index_writes == 1

    def test_delete_roundtrip(self, relation):
        relation.apply_delta(Delta.deletion([(0, "g0", 0)]))
        assert relation.row_count == 8
        assert (0, "g0", 0) not in relation.contents()

    def test_delete_absent_rejected(self, relation):
        with pytest.raises(StorageError):
            relation.apply_delta(Delta.deletion([(42, "gX", 0)]))

    def test_key_violation_on_insert(self, relation):
        with pytest.raises(StorageError):
            relation.apply_delta(Delta.insertion([(0, "gZ", 1)]))

    def test_key_violation_on_load(self):
        rel = StoredRelation("S", SCHEMA)
        with pytest.raises(StorageError):
            rel.load([(1, "a", 0), (1, "b", 0)])

    def test_insert_after_delete_reuses_key(self, relation):
        relation.apply_delta(Delta.deletion([(0, "g0", 0)]))
        relation.apply_delta(Delta.insertion([(0, "new", 7)]))
        assert (0, "new", 7) in relation.contents()


class TestIndexManagement:
    def test_create_index_idempotent(self, relation):
        idx1 = relation.create_index(["G"])
        idx2 = relation.create_index(["G"])
        assert idx1 is idx2

    def test_index_built_over_existing_data(self, relation):
        index = relation.create_index(["V"])
        relation.counter.reset()
        assert index.probe((10,)).total() == 1

    def test_indexes_listing(self, relation):
        assert ("G",) in relation.indexes


class TestCandidates:
    def test_key_pin_returns_the_one_row(self, relation):
        assert relation.candidates({"K": 4}) == (("K",), [(4, "g1", 40)])
        assert relation.candidates({"K": 4, "V": 0}) == (("K",), [(4, "g1", 40)])

    def test_absent_key_returns_empty(self, relation):
        assert relation.candidates({"K": 99}) == (("K",), [])

    def test_float_pin_finds_equal_int_key(self, relation):
        assert relation.candidates({"K": 4.0}) == (("K",), [(4, "g1", 40)])

    def test_index_pin_returns_the_bucket(self, relation):
        columns, rows = relation.candidates({"G": "g0"})
        assert columns == ("G",)
        assert sorted(rows) == [(0, "g0", 0), (3, "g0", 30), (6, "g0", 60)]
        assert relation.candidates({"G": "nope"}) == (("G",), [])

    def test_smallest_covering_bucket_wins(self, relation):
        relation.create_index(["V"])
        assert relation.candidates({"G": "g0", "V": 30}) == (("V",), [(3, "g0", 30)])

    def test_uncovered_pins_return_none(self, relation):
        assert relation.candidates({}) is None
        assert relation.candidates({"V": 10}) is None

    def test_bucket_keeps_multiplicity(self):
        rel = StoredRelation("B", Schema.of(("A", DataType.INT), ("G", DataType.STRING)))
        rel.load([(1, "x"), (1, "x"), (2, "x")])
        rel.create_index(["G"])
        assert sorted(rel.candidates({"G": "x"})[1]) == [(1, "x"), (1, "x"), (2, "x")]

    def test_uncharged(self, relation):
        relation.candidates({"K": 1})
        relation.candidates({"G": "g1"})
        assert relation.counter.total == 0

    def test_key_map_follows_modifies(self, relation):
        relation.apply_delta(Delta.modification([((4, "g1", 40), (4, "g2", 41))]))
        assert relation.candidates({"K": 4}) == (("K",), [(4, "g2", 41)])
        relation.apply_delta(Delta.modification([((4, "g2", 41), (44, "g2", 41))]))
        assert relation.candidates({"K": 4}) == (("K",), [])
        assert relation.candidates({"K": 44}) == (("K",), [(44, "g2", 41)])

    def test_key_swap_batch_moves_rows(self):
        rel = StoredRelation("S", SCHEMA)
        rel.load([(1, "a", 0), (2, "b", 0)])
        rel.apply_delta(
            Delta.modification([((1, "a", 0), (2, "a", 0)), ((2, "b", 0), (1, "b", 0))])
        )
        assert rel.candidates({"K": 1}) == (("K",), [(1, "b", 0)])
        assert rel.candidates({"K": 2}) == (("K",), [(2, "a", 0)])


class TestRejectedDelta:
    """A rejected delta is validated whole before anything is applied or
    charged: the relation and the counter are exactly as before."""

    KV = Schema.of(("K", DataType.INT), ("V", DataType.INT), keys=[["K"]])

    @pytest.fixture
    def kv(self):
        rel = StoredRelation("R", self.KV)
        rel.load([(1, 10), (2, 20)])
        rel.create_index(["V"])
        return rel

    def _assert_untouched(self, rel):
        assert rel.contents() == Multiset([(1, 10), (2, 20)])
        assert rel.row_count == 2
        assert rel.candidates({"K": 1}) == (("K",), [(1, 10)])
        assert rel.candidates({"K": 2}) == (("K",), [(2, 20)])
        assert rel.candidates({"K": 5}) == (("K",), [])
        assert rel.candidates({"V": 20}) == (("V",), [(2, 20)])
        index = rel.index_on(["V"])
        assert index.distinct_keys() == 2
        assert rel.counter.snapshot() == IOStats()
        # One row per bucket, and a probe charges the bucket's one tuple.
        assert index.probe((10,)) == Multiset([(1, 10)])
        assert index.probe((20,)) == Multiset([(2, 20)])
        assert rel.counter.snapshot() == IOStats(index_reads=2, tuple_reads=2)

    def test_type_error_mid_delta_is_atomic(self, kv):
        with pytest.raises(TypeError_):
            kv.apply_delta(Delta.modification([((1, 10), (1, 11)), ((2, 20), (2, "x"))]))
        self._assert_untouched(kv)

    @pytest.mark.parametrize(
        "delta",
        [
            Delta.modification([((1, 10), (1, 11)), ((3, 30), (3, 31))]),  # absent old
            Delta(inserts=Multiset([(5, 50)]), deletes=Multiset([(9, 90)])),  # absent delete
            Delta.insertion([(5, 50), (1, 99)]),  # key held
            Delta.modification([((1, 10), (2, 10))]),  # modify onto a held key
            Delta.insertion([(5, 50), (5, 51)]),  # key taken twice
            Delta(inserts=Multiset({(5, 50): 2})),  # one row inserted twice
            # Inserts go before deletes, so a delete frees nothing for them.
            Delta(inserts=Multiset([(1, 70)]), deletes=Multiset([(1, 10)])),
        ],
        ids=[
            "absent-old", "absent-delete", "key-held", "modify-onto-held",
            "key-twice", "row-twice", "delete-frees-nothing",
        ],
    )
    def test_storage_error_charges_nothing(self, kv, delta):
        with pytest.raises(StorageError):
            kv.apply_delta(delta)
        self._assert_untouched(kv)

    def test_accepted_delta_charges_as_before(self, kv):
        kv.apply_delta(Delta.modification([((1, 10), (1, 11)), ((2, 20), (2, 20))]))
        # V index: reads {10, 11, 20}, writes the moved row's {10, 11}.
        assert kv.counter.snapshot() == IOStats(3, 2, 2, 2)


def _assert_consistent(rel: StoredRelation) -> None:
    """The row count and every key's probes agree with the stored rows."""
    stored = dict(rel.items())
    assert rel.row_count == sum(stored.values())
    assert all(n == 1 for n in stored.values())  # keyed: each row once
    for row in stored:
        assert rel.candidates({"K": row[0]}) == (("K",), [row])
    held = {row[0] for row in stored}
    for k in set(range(100)) - held:
        assert rel.candidates({"K": k}) == (("K",), [])


class TestRunningState:
    """``row_count`` is a running total and key maps hold rows; both must
    track the data through every way a relation changes."""

    def test_random_deltas_failures_and_rollback(self):
        import random

        from repro.storage.undo import UndoLog

        rng = random.Random(7)
        rel = StoredRelation("R", SCHEMA)
        rel.load([(i, f"g{i % 4}", i) for i in range(20)])
        rel.create_index(["G"])
        failures = rollbacks = 0
        for _ in range(400):
            live = sorted(rel.rows())
            undo = UndoLog()
            for _ in range(rng.randint(1, 3)):
                # One kind per delta, so each inverse is applicable. Keys in
                # 0..39 make inserts and key-changing modifies collide with
                # live rows now and then; deletes sometimes miss.
                kind = rng.choice(["insert", "delete", "modify"])
                if kind == "insert":
                    delta = Delta.insertion(
                        (rng.randrange(40), f"g{rng.randrange(4)}", rng.randrange(9))
                        for _ in range(rng.randint(1, 3))
                    )
                elif kind == "delete" or not live:
                    delta = Delta.deletion(
                        rng.choice(live) if live and rng.random() < 0.8 else (99, "gX", 0)
                        for _ in range(rng.randint(1, 2))
                    )
                else:
                    olds = rng.sample(live, min(len(live), rng.randint(1, 3)))
                    delta = Delta.modification(
                        (old, (rng.choice([old[0], rng.randrange(40)]), old[1], old[2] + 1))
                        for old in olds
                    )
                before = rel.contents()
                try:
                    rel.apply_delta(delta)
                    undo.record(rel, delta)
                except StorageError:
                    failures += 1
                    assert rel.contents() == before  # atomic
                _assert_consistent(rel)
                live = sorted(rel.rows())
            if rng.random() < 0.4:
                undo.rollback()
                rollbacks += 1
                _assert_consistent(rel)
        assert failures > 20 and rollbacks > 20
