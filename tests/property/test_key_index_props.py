"""Property-based tests: one index class, three layouts, one answer.

``StoredRelation.create_index`` on exactly a candidate key's columns
returns a ``"keyed"`` :class:`HashIndex` answered from the relation's key
map. Fed the same random stream of validated deltas — key-keeping and
key-changing modifies, inserts, deletes — as a keyless (``"buckets"``)
index on the same columns, it must answer every probe with the same rows
and the same charges, and the relation must charge every update the
(read, written) index pages the keyless index's update reports. A delta
the relation rejects (a key violation, an absent row) changes and charges
nothing, key index included. The bucket layouts (``"refs"`` on a keyed
relation, ``"buckets"`` on a keyless one) must answer every probe in the
order a scan meets the rows, as a row-bucket reference keeping the
relation's order rule does, and charge what it prices.
"""

import gc
from collections import Counter

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.algebra.multiset import Multiset
from repro.algebra.schema import Schema
from repro.algebra.types import DataType
from repro.ivm.delta import Delta
from repro.storage.index import HashIndex
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


def _probe_keys(rel: StoredRelation, index: HashIndex):
    """Every stored key plus some that miss."""
    stored = {index.key_of(row) for row in rel.rows()}
    return sorted(stored | {(9,), (9, 9), (0,), (0, 0)}, key=repr)


@settings(max_examples=300, deadline=None)
@given(case=stream())
def test_key_index_answers_and_charges_as_a_hash_index(case):
    schema, cols, rows, deltas = case
    rel = StoredRelation("R", schema)
    rel.load(rows)
    key_index = rel.create_index(cols)
    assert key_index.shape == "keyed"
    reference = HashIndex(schema, cols, IOCounter())
    assert reference.shape == "buckets"
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
            pages = reference.update(olds, news, ins, dels, (olds, news, ins, dels), False)
            assert (charged.index_reads, charged.index_writes) == pages

        assert key_index.distinct_keys() == reference.distinct_keys()
        keys = [k for k in _probe_keys(rel, key_index) if len(k) == arity]
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
    rel.load([(1, 2, 3)])
    assert rel.create_index(["K"]).shape == "keyed"
    assert rel.index_on(["K"]).rows == {1: (1, 2, 3)}  # the key's own map
    assert isinstance(rel.create_index(["G"]), HashIndex)
    assert isinstance(rel.create_index(["G", "K"]), HashIndex)
    assert rel.create_index(["K"]) is rel.index_on(["K"])
    # On a keyed relation a bucket holds first-key values; without a key, rows.
    assert [rel.index_on(c).shape for c in (["K"], ["G"], ["G", "K"])] == ["keyed", "refs", "refs"]
    assert StoredRelation("B", Schema.of(("G", INT))).create_index(["G"]).shape == "buckets"


# -- bucket indexes: non-key indexes on a keyed relation, any on a keyless one --------

FOUR = Schema.of(("K", INT), ("G", INT), ("V", INT), ("W", INT), keys=[["K"]])
FOUR_BAG = Schema.of(*FOUR.columns)
ROW4 = st.tuples(VALUE, VALUE, VALUE, VALUE)
SECONDARY = (("G",), ("V",))


@st.composite
def pair_stream(draw, keyed: bool = True):
    """(stored rows, deltas) on ``FOUR`` of modify pairs of every shape —
    keep every key (change W), change one index key (G or V), take a fresh
    first key, swap two rows, chain one row onto another's key, change
    nothing — with a few inserts and deletes; each delta drawn over the
    rows its accepted predecessors leave. About half the deltas keep every
    key in every pair, so on a keyed relation their rows stay in place.
    Without ``keyed`` the rows are for ``FOUR_BAG``: some are stored more
    than once, and every delta is accepted."""
    rows = draw(st.lists(ROW4, max_size=8))
    if keyed:
        rows = list({r[0]: r for r in rows}.values())
    elif rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    live = list(rows)
    deltas = []
    for _ in range(draw(st.integers(1, 6))):
        olds = draw(st.lists(st.sampled_from(live), max_size=4, unique=True)) if live else []
        only_keep = draw(st.booleans())
        pairs = []
        while olds:
            old = olds.pop()
            shapes = ["keep", "regroup", "revalue", "rekey", "swap", "chain", "noop"]
            shape = draw(st.sampled_from(["keep", "noop"] if only_keep else shapes))
            k, g, v, w = old
            if shape in ("swap", "chain") and olds:
                other = olds.pop()
                if shape == "swap":
                    pairs += [(old, other), (other, old)]
                else:
                    rekeyed = (draw(VALUE) + 6, *other[1:])
                    pairs += [(old, (other[0], g, v, w + 1)), (other, rekeyed)]
            elif shape == "regroup":
                pairs.append((old, (k, draw(VALUE), v, w)))
            elif shape == "revalue":
                pairs.append((old, (k, g, draw(VALUE), w)))
            elif shape == "rekey":
                pairs.append((old, (draw(VALUE) + 6, g, v, w)))
            elif shape == "noop":
                pairs.append((old, old))
            else:
                pairs.append((old, (k, g, v, w + 1)))
        inserts = draw(st.lists(ROW4, max_size=2))
        olds = [old for old, _ in pairs]
        rest = [r for r in live if r not in olds]
        deletes = draw(st.lists(st.sampled_from(rest), max_size=2, unique=True)) if rest else []
        deltas.append(Delta(inserts=Multiset(inserts), deletes=Multiset(deletes), modifies=pairs))
        if not keyed:
            after = Counter(live)
            after.subtract(olds + deletes)
            live = list(after.elements()) + [new for _, new in pairs] + inserts
            continue
        after = [r for r in live if r not in olds and r not in deletes]
        after += [new for _, new in pairs] + inserts
        if len({r[0] for r in after}) == len(after):
            live = after
    return rows, deltas


class RowBuckets:
    """The reference: row-count buckets (row -> count per index key, with a
    running total per key), under the order rule a scan keeps. When every
    pair of a keyed relation keeps its first key and every index key, each
    row keeps its slot; else every pair leaves its bucket and then joins
    the end of its new one. Then inserts join and deletes leave."""

    def __init__(self, cols, rows) -> None:
        positions = [FOUR.index_of(c) for c in cols]
        self.key = lambda row: tuple(row[i] for i in positions)
        self.buckets: dict = {}
        self.totals: dict = {}
        for row in rows:
            self._bump(row, 1)

    def _bump(self, row, count: int) -> None:
        key = self.key(row)
        bucket = self.buckets.setdefault(key, {})
        n = bucket.get(row, 0) + count
        if n:
            bucket[row] = n
        else:
            del bucket[row]
        self.totals[key] = self.totals.get(key, 0) + count
        if not bucket:
            del self.buckets[key], self.totals[key]

    def update(self, delta: Delta, in_place: bool) -> tuple[int, int]:
        """Apply an accepted delta; return its (read, written) index pages:
        per distinct key, one read for the pairs' keys and one write for
        those of pairs that change it, and one of each for inserts' and
        deletes' keys."""
        pairs = delta.modifies
        if in_place:
            for old, new in pairs:
                key = self.key(old)
                bucket = self.buckets[key]
                self.buckets[key] = {new if row == old else row: n for row, n in bucket.items()}
        else:
            for old, _ in pairs:
                self._bump(old, -1)
            for _, new in pairs:
                self._bump(new, 1)
        for row, n in delta.inserts.items():
            self._bump(row, n)
        for row, n in delta.deletes.items():
            self._bump(row, -n)
        keys = [(self.key(old), self.key(new)) for old, new in pairs]
        reads = len({k for pair in keys for k in pair})
        writes = len({k for ko, kn in keys if ko != kn for k in (ko, kn)})
        for part in (delta.inserts, delta.deletes):
            pages = len({self.key(row) for row in part.rows()})
            reads += pages
            writes += pages
        return reads, writes


def _bucket_items(index: HashIndex, bucket) -> list:
    """A borrowed bucket's (row, count) pairs, in its order."""
    if index.shape == "refs":
        return [(index.rows[ref], 1) for ref in bucket]
    return list(bucket.items())


def _assert_answers_as(rel: StoredRelation, index: HashIndex, ref: RowBuckets) -> None:
    """Every probe of ``index`` returns the reference's rows in its order,
    which is the scan's order, and charges what the reference prices."""
    scan = list(rel.items())
    assert index.distinct_keys() == len(ref.buckets)
    keys = sorted(ref.buckets) + [(99,)]
    for k in keys:
        expected = list(ref.buckets.get(k, {}).items())
        assert [(row, n) for row, n in scan if ref.key(row) == k] == expected
        assert list(index.probe_free(k).items()) == expected
        out, io = _charged(rel.counter, index.probe, k)
        assert list(out.items()) == expected
        assert io == IOStats(index_reads=1, tuple_reads=ref.totals.get(k, 0))
    for batch in (set(keys), keys + keys[:2]):
        charge = IOStats(
            index_reads=len(batch), tuple_reads=sum(ref.totals.get(k, 0) for k in batch)
        )
        expected = Multiset()
        for k in batch:
            for row, n in ref.buckets.get(k, {}).items():
                expected.add(row, n)
        out, io = _charged(rel.counter, index.probe_many, batch)
        assert (list(out.items()), io) == (list(expected.items()), charge)
        buckets, io = _charged(rel.counter, index.probe_buckets, batch)
        flattened = {k: _bucket_items(index, b) for k, b in buckets.items()}
        assert flattened == {k: list(ref.buckets[k].items()) for k in batch if k in ref.buckets}
        assert io == charge


@settings(max_examples=300, deadline=None)
@given(case=pair_stream())
def test_key_buckets_match_a_row_bucket_reference(case):
    """A keyed relation's hash indexes hold first-key values: over random
    accepted deltas, every probe, its order and its charge, every update's
    charge and the distinct key count must equal row-count buckets kept by
    the reference order rule."""
    rows, deltas = case
    _check_stream(StoredRelation("R", FOUR), rows, deltas)


@settings(max_examples=300, deadline=None)
@given(case=pair_stream(keyed=False))
def test_keyless_buckets_match_a_row_bucket_reference(case):
    """A keyless relation's indexes hold row multisets: over random deltas
    on rows stored more than once, every probe, its order (the scan's) and
    its charge, every update's charge and the distinct key count must equal
    the reference, whose pairs always leave and then join."""
    rows, deltas = case
    rel = StoredRelation("R", FOUR_BAG)
    _check_stream(rel, rows, deltas)
    assert all(rel.index_on(cols).shape == "buckets" for cols in SECONDARY)


def _check_stream(rel: StoredRelation, rows, deltas) -> None:
    """Load ``rows``, index ``SECONDARY``, apply each delta the relation
    accepts and compare each index with its reference after each."""
    rel.load(rows)
    indexes = {cols: rel.create_index(cols) for cols in SECONDARY}
    refs = {cols: RowBuckets(cols, rel.rows()) for cols in SECONDARY}
    for delta in deltas:
        before = rel.counter.snapshot()
        try:
            rel.apply_delta(delta)
        except StorageError:
            event("rejected")
            continue
        charged = rel.counter.snapshot() - before
        in_place = bool(rel.schema.keys) and all(
            old[0] == new[0] and all(ref.key(old) == ref.key(new) for ref in refs.values())
            for old, new in delta.modifies
        )
        if delta.modifies:
            event("pairs in place" if in_place else "pairs move")
        pages = [ref.update(delta, in_place) for ref in refs.values()]
        assert (charged.index_reads, charged.index_writes) == (
            sum(reads for reads, _ in pages),
            sum(writes for _, writes in pages),
        )
        for cols, index in indexes.items():
            _assert_answers_as(rel, index, refs[cols])


def test_a_key_keeping_modify_keeps_the_rows_scan_position():
    rel = StoredRelation("R", FOUR)
    rel.load([(1, 0, 0, 0), (2, 0, 0, 0), (3, 1, 0, 0)])
    index = rel.create_index(["G"])
    rel.apply_delta(Delta.modification([((2, 0, 0, 0), (2, 0, 0, 1))]))
    assert list(rel.rows()) == [(1, 0, 0, 0), (2, 0, 0, 1), (3, 1, 0, 0)]
    assert list(index.probe_free((0,)).rows()) == [(1, 0, 0, 0), (2, 0, 0, 1)]
    # A pair that changes an index key moves to the end of the scan and of
    # its new bucket, and takes the delta's other pairs with it.
    rel.apply_delta(
        Delta.modification([((3, 1, 0, 0), (3, 1, 0, 1)), ((1, 0, 0, 0), (1, 1, 0, 0))])
    )
    assert list(rel.rows()) == [(2, 0, 0, 1), (3, 1, 0, 1), (1, 1, 0, 0)]
    assert list(index.probe_free((1,)).rows()) == [(3, 1, 0, 1), (1, 1, 0, 0)]


def test_buckets_are_untracked_and_a_key_keeping_modify_leaves_them_alone():
    """The collector never walks a bucket of an int-keyed relation: it
    holds the key map's bare ints, so no bucket is ever tracked, and a
    modify that keeps every key keeps the same buckets."""
    rows = [(k, k % 7, k % 5, 0) for k in range(300)]
    rel = StoredRelation("R", FOUR)
    rel.load(rows)
    index = rel.create_index(["G"])
    groups = {(g,) for g in range(7)}
    before = index.probe_buckets(groups)
    assert len(before) == 7
    assert not any(map(gc.is_tracked, before.values()))
    rel.apply_delta(Delta.modification([(row, (*row[:3], 1)) for row in rows]))
    after = index.probe_buckets(groups)
    assert all(after[k] is before[k] for k in groups)
    assert not any(map(gc.is_tracked, after.values()))
    assert list(index.probe_free((0,)).rows()) == [(k, 0, k % 5, 1) for k in range(0, 300, 7)]
    # Rows that join later join untracked buckets, and a new one is untracked.
    rel.apply_delta(Delta.insertion([(300, 0, 0, 0), (301, 9, 0, 0)]))
    assert not any(map(gc.is_tracked, index.probe_buckets(groups | {(9,)}).values()))
