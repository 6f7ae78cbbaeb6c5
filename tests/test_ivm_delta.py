"""Unit tests for deltas."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algebra.multiset import Multiset
from repro.ivm.delta import Delta


class TestConstructors:
    def test_insertion(self):
        d = Delta.insertion([(1,), (1,)])
        assert d.inserts.count((1,)) == 2
        assert d.size() == 2

    def test_deletion(self):
        d = Delta.deletion([(1,)])
        assert d.deletes.count((1,)) == 1

    def test_modification(self):
        d = Delta.modification([((1,), (2,))])
        assert d.modifies == [((1,), (2,))]
        assert d.size() == 1

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            Delta(inserts=Multiset({(1,): -1}))

    def test_from_net_splits(self):
        d = Delta.from_net(Multiset({(1,): 2, (2,): -1}))
        assert d.inserts.count((1,)) == 2
        assert d.deletes.count((2,)) == 1


class TestViews:
    def test_net_of_modify(self):
        d = Delta.modification([((1,), (2,))])
        net = d.net()
        assert net.count((1,)) == -1 and net.count((2,)) == 1

    def test_net_cancellation(self):
        d = Delta(inserts=Multiset([(1,)]), deletes=Multiset([(1,)]))
        assert not d.net()

    def test_all_inserted_deleted(self):
        d = Delta(
            inserts=Multiset([(1,)]),
            deletes=Multiset([(2,)]),
            modifies=[((3,), (4,))],
        )
        assert sorted(d.all_inserted().rows()) == [(1,), (4,)]
        assert sorted(d.all_deleted().rows()) == [(2,), (3,)]

    def test_is_empty(self):
        assert Delta().is_empty
        assert not Delta.insertion([(1,)]).is_empty


def _modified_row_by_row(delta, names):
    """The per-pair, per-column definition the column pass must match."""
    changed = set()
    for old, new in delta.modifies:
        for i, (a, b) in enumerate(zip(old, new)):
            if a != b:
                changed.add(names[i])
    return frozenset(changed)


NAN = float("nan")


class TestModifiedColumns:
    NAMES = ("A", "B", "C")

    @pytest.mark.parametrize("copies", [1, 20])
    def test_columns_that_differ_in_some_pair(self, copies):
        d = Delta.modification([((1, 2, 3), (1, 5, 3)), ((2, 2, 2), (2, 2, 4))] * copies)
        assert d.modified_columns(self.NAMES) == {"B", "C"}

    def test_no_modifies_and_no_op_pairs_change_nothing(self):
        assert Delta.insertion([(1, 2, 3)]).modified_columns(self.NAMES) == frozenset()
        d = Delta.modification([((1, 2, 3), (1, 2, 3))])
        assert d.modified_columns(self.NAMES) == frozenset()

    @pytest.mark.parametrize("copies", [1, 20])
    def test_a_nan_differs_from_itself(self, copies):
        d = Delta.modification([((1, NAN, 3), (1, NAN, 3))] * copies)
        assert d.modified_columns(self.NAMES) == {"B"}

    @pytest.mark.parametrize("copies", [1, 20])  # row by row, then a column pass
    def test_ragged_rows_compare_what_both_sides_hold(self, copies):
        d = Delta.modification([((1, 2), (1, 3, 9)), ((1, 2, 3), (1, 2, 3))] * copies)
        assert d.modified_columns(self.NAMES) == {"B"}

    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from([0, 1, 1.0, NAN, "x", True]), min_size=2, max_size=4),
                st.lists(st.sampled_from([0, 1, 1.0, NAN, "x", True]), min_size=2, max_size=4),
            ),
            max_size=5,
        )
    )
    def test_matches_the_per_row_definition(self, pairs):
        names = ("A", "B", "C", "D")
        pairs = [(tuple(old), tuple(new)) for old, new in pairs]
        for d in (Delta.modification(pairs), Delta.modification(pairs * 20)):
            assert d.modified_columns(names) == _modified_row_by_row(d, names)


class TestPairModifications:
    def test_pairs_same_key(self):
        d = Delta(
            inserts=Multiset([("k", 2)]),
            deletes=Multiset([("k", 1)]),
        )
        paired = d.pair_modifications([0])
        assert paired.modifies == [(("k", 1), ("k", 2))]
        assert not paired.inserts and not paired.deletes

    def test_unmatched_stay(self):
        d = Delta(inserts=Multiset([("a", 1)]), deletes=Multiset([("b", 2)]))
        paired = d.pair_modifications([0])
        assert paired.inserts.count(("a", 1)) == 1
        assert paired.deletes.count(("b", 2)) == 1
        assert not paired.modifies

    def test_existing_modifies_kept(self):
        d = Delta(modifies=[((1, 1), (1, 2))])
        paired = d.pair_modifications([0])
        assert paired.modifies == [((1, 1), (1, 2))]

    def test_multiplicity_pairing(self):
        d = Delta(
            inserts=Multiset({("k", 2): 2}),
            deletes=Multiset({("k", 1): 2}),
        )
        paired = d.pair_modifications([0])
        assert len(paired.modifies) == 2

    def test_semantics_preserved(self):
        d = Delta(
            inserts=Multiset([("k", 2), ("x", 0)]),
            deletes=Multiset([("k", 1), ("y", 9)]),
        )
        assert d.pair_modifications([0]).net() == d.net()
