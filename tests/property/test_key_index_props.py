"""Property-based tests: an index on a declared key is that key's map.

``StoredRelation.create_index`` on exactly a candidate key's columns
returns a :class:`KeyIndex` answered from the relation's key map. Fed the
same random stream of validated deltas — key-keeping and key-changing
modifies, inserts, deletes — as a :class:`HashIndex` on the same columns,
it must answer every probe with the same rows and the same charges, and
the relation must charge every update the (read, written) index pages the
hash index's update reports. A delta the relation rejects (a key
violation, an absent row) changes and charges nothing, key index included.
"""

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.algebra.multiset import Multiset
from repro.algebra.schema import Schema
from repro.algebra.types import DataType
from repro.ivm.delta import Delta
from repro.storage.index import HashIndex, KeyIndex
from repro.storage.pager import IOCounter, IOStats
from repro.storage.relation import StorageError, StoredRelation

INT = DataType.INT
ONE = Schema.of(("K", INT), ("G", INT), ("V", INT), keys=[["K"]])
# A two-column key, declared out of column order: the index key is (A, B).
TWO = Schema.of(("B", INT), ("A", INT), ("V", INT), keys=[["B", "A"]])
VALUE = st.integers(0, 5)
ROW = st.tuples(VALUE, VALUE, VALUE)


@st.composite
def stream(draw):
    """(schema, key columns, stored rows, deltas): each delta drawn over the
    rows its predecessors leave when all of them apply."""
    schema, cols = draw(st.sampled_from([(ONE, ("K",)), (TWO, ("A", "B"))]))
    positions = [schema.index_of(c) for c in cols]

    def key(row):
        return tuple(row[i] for i in positions)

    rows = list({key(r): r for r in draw(st.lists(ROW, max_size=8))}.values())
    live = list(rows)
    deltas = []
    for _ in range(draw(st.integers(1, 6))):
        olds = draw(st.lists(st.sampled_from(live), max_size=4, unique=True)) if live else []
        pairs = []
        for old in olds:
            # Keep the key and change a value, or redraw the whole row.
            new = old[:-1] + (old[-1] + 1,) if draw(st.booleans()) else draw(ROW)
            pairs.append((old, new))
        inserts = draw(st.lists(ROW, max_size=3))
        rest = [r for r in live if r not in olds]
        deletes = draw(st.lists(st.sampled_from(rest), max_size=2, unique=True)) if rest else []
        delta = Delta(inserts=Multiset(inserts), deletes=Multiset(deletes), modifies=pairs)
        deltas.append(delta)
        # Track the rows an accepted delta leaves (a rejected one leaves all).
        after = [r for r in live if r not in olds and r not in deletes]
        after += [new for _, new in pairs] + inserts
        keys = [key(r) for r in after]
        if len(set(keys)) == len(keys):
            live = after
    return schema, cols, rows, deltas


def _probe_keys(index: HashIndex):
    """Every stored key plus some that miss."""
    return sorted(set(index._buckets) | {(9,), (9, 9), (0,), (0, 0)}, key=repr)


@settings(max_examples=300, deadline=None)
@given(case=stream())
def test_key_index_answers_and_charges_as_a_hash_index(case):
    schema, cols, rows, deltas = case
    rel = StoredRelation("R", schema)
    rel.load(rows)
    key_index = rel.create_index(cols)
    assert isinstance(key_index, KeyIndex)
    reference = HashIndex(schema, cols, IOCounter())
    reference.rebuild(rel.items())
    arity = len(cols)

    for delta in deltas:
        before = rel.counter.snapshot()
        start = rel.contents()
        try:
            rel.apply_delta(delta)
        except StorageError:
            event("rejected")
            assert rel.contents() == start
            assert rel.counter.snapshot() == before
        else:
            event("applied")
            charged = rel.counter.snapshot() - before
            olds = [old for old, _ in delta.modifies]
            news = [new for _, new in delta.modifies]
            ins, dels = dict(delta.inserts._counts), dict(delta.deletes._counts)
            pages = reference.update(olds, news, ins, dels)
            assert (charged.index_reads, charged.index_writes) == pages

        assert key_index.distinct_keys() == reference.distinct_keys()
        keys = [k for k in _probe_keys(reference) if len(k) == arity]
        for k in keys:
            assert key_index.probe_free(k) == reference.probe_free(k)
            assert _charged(rel.counter, key_index.probe, k) == _charged(
                reference._counter, reference.probe, k
            )
        for batch in (set(keys), keys + keys[:2]):
            assert _charged(rel.counter, key_index.probe_many, batch) == _charged(
                reference._counter, reference.probe_many, batch
            )
            rows_by_key, io = _charged(rel.counter, key_index.probe_buckets, batch)
            buckets, reference_io = _charged(reference._counter, reference.probe_buckets, batch)
            assert io == reference_io
            assert {k: Multiset([row]) for k, row in rows_by_key.items()} == buckets


def _charged(counter: IOCounter, probe, arg):
    """``probe(arg)`` and the I/O it charged."""
    before = counter.snapshot()
    out = probe(arg)
    return out, counter.snapshot() - before


@pytest.mark.parametrize(
    "delta",
    [
        Delta.insertion([(1, 7, 7)]),  # takes a held key
        Delta.modification([((2, 0, 0), (1, 0, 0))]),  # moves onto a held key
        Delta.insertion([(5, 0, 0), (5, 1, 1)]),  # one key taken twice
    ],
)
def test_key_violation_changes_and_charges_nothing(delta):
    rel = StoredRelation("R", ONE)
    rel.load([(1, 0, 0), (2, 0, 0)])
    key_index = rel.create_index(["K"])
    with pytest.raises(StorageError):
        rel.apply_delta(delta)
    assert rel.counter.snapshot() == IOStats()
    assert sorted(rel.contents().rows()) == [(1, 0, 0), (2, 0, 0)]
    assert key_index.probe_free((1,)) == Multiset([(1, 0, 0)])
    assert key_index.probe_free((5,)) == Multiset()
    assert key_index.distinct_keys() == 2


def test_index_on_a_key_is_its_map_and_others_keep_buckets():
    rel = StoredRelation("R", ONE)
    assert isinstance(rel.create_index(["K"]), KeyIndex)
    assert isinstance(rel.create_index(["G"]), HashIndex)
    assert isinstance(rel.create_index(["G", "K"]), HashIndex)
    assert rel.create_index(["K"]) is rel.index_on(["K"])


# -- a non-key hash index on a keyed relation --------------------------------------


@st.composite
def pair_stream(draw):
    """(stored rows, deltas) on ``ONE`` of modify pairs of every shape — keep
    both keys, move to another index bucket, take a fresh primary key, swap
    two rows, chain one row onto another's key, change nothing — with a few
    inserts and deletes; each delta drawn over the rows its accepted
    predecessors leave."""
    rows = list({r[0]: r for r in draw(st.lists(ROW, max_size=8))}.values())
    live = list(rows)
    deltas = []
    for _ in range(draw(st.integers(1, 6))):
        olds = draw(st.lists(st.sampled_from(live), max_size=4, unique=True)) if live else []
        pairs = []
        while olds:
            old = olds.pop()
            shape = draw(st.sampled_from(["keep", "regroup", "rekey", "swap", "chain", "noop"]))
            k, g, v = old
            if shape in ("swap", "chain") and olds:
                other = olds.pop()
                if shape == "swap":
                    pairs += [(old, other), (other, old)]
                else:
                    pairs += [(old, (other[0], g, v + 1)), (other, (draw(VALUE) + 6, *other[1:]))]
            elif shape == "regroup":
                pairs.append((old, (k, draw(VALUE), v)))
            elif shape == "rekey":
                pairs.append((old, (draw(VALUE) + 6, g, v)))
            elif shape == "noop":
                pairs.append((old, old))
            else:
                pairs.append((old, (k, g, v + 1)))
        inserts = draw(st.lists(ROW, max_size=2))
        olds = [old for old, _ in pairs]
        rest = [r for r in live if r not in olds]
        deletes = draw(st.lists(st.sampled_from(rest), max_size=2, unique=True)) if rest else []
        deltas.append(Delta(inserts=Multiset(inserts), deletes=Multiset(deletes), modifies=pairs))
        after = [r for r in live if r not in olds and r not in deletes]
        after += [new for _, new in pairs] + inserts
        if len({r[0] for r in after}) == len(after):
            live = after
    return rows, deltas


def _layout(index: HashIndex):
    """Buckets in iteration order, each bucket's rows in order, and totals."""
    return (
        [(key, list(bucket.items())) for key, bucket in index._buckets.items()],
        dict(index._totals),
    )


@settings(max_examples=300, deadline=None)
@given(case=pair_stream())
def test_unique_pair_moves_match_the_general_path(case):
    """A keyed relation's hash index moves a pair that keeps both the index
    key and the primary key in one step; its buckets, their order, their
    totals and the charges must equal a hash index kept by the general path
    over the same accepted deltas."""
    rows, deltas = case
    rel = StoredRelation("R", ONE)
    rel.load(rows)
    index = rel.create_index(["G"])
    reference = HashIndex(ONE, ("G",), IOCounter())
    reference.rebuild(rel.items())
    for delta in deltas:
        before = rel.counter.snapshot()
        try:
            rel.apply_delta(delta)
        except StorageError:
            event("rejected")
            continue
        if delta.modifies and all(old[0] == new[0] for old, new in delta.modifies):
            event("every pair keeps the primary key")
        charged = rel.counter.snapshot() - before
        olds = [old for old, _ in delta.modifies]
        news = [new for _, new in delta.modifies]
        ins, dels = dict(delta.inserts._counts), dict(delta.deletes._counts)
        pages = reference.update(olds, news, ins, dels)
        assert (charged.index_reads, charged.index_writes) == pages
        assert _layout(index) == _layout(reference)
