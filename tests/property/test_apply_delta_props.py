"""Property-based tests: the batched ``StoredRelation.apply_delta``.

The reference below is the per-row algorithm storage used before the apply
was batched: charge each phase's index pages, then validate, charge and
apply row by row — modifies (every old out, then every new in), inserts,
deletes — un-applying the applied prefix when a row fails. The batched
apply must reach the same contents, row count, key maps, index buckets and
totals, and I/O counts; ``Delta.inverted`` must equal the inverse the
reference builds from the rows it applied, and restore the start state;
and a delta the reference rejects must be rejected with the relation
untouched and nothing charged. The relation's state is read through its
public reads (``items``, ``row_count``, ``candidates``, each index's
``probe_free``, and the tuple reads a ``probe`` charges for a bucket's
total), so it does not matter which structure holds the rows or a bucket.
"""

from itertools import product

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.algebra.multiset import Multiset
from repro.algebra.schema import Schema
from repro.algebra.types import DataType, TypeError_
from repro.ivm.delta import Delta
from repro.storage.pager import IOStats
from repro.storage.relation import StorageError, StoredRelation

KEYED = Schema.of(("K", DataType.INT), ("G", DataType.INT), ("V", DataType.INT), keys=[["K"]])
# Two keys: the rows live in one key's map, and the other map only checks.
TWO_KEYS = Schema.of(
    ("K", DataType.INT), ("G", DataType.INT), ("V", DataType.INT), keys=[["K"], ["G", "V"]]
)
BAG = Schema.of(("K", DataType.INT), ("G", DataType.INT), ("V", DataType.INT))
# V is the column modifies change most, so ("V",) is an index on a modified column.
INDEXES = [("G",), ("V",), ("G", "K")]


class PerRowRelation:
    """The per-row reference: plain dicts, charges in ``io`` (index reads,
    index writes, tuple reads, tuple writes)."""

    def __init__(self, schema: Schema, index_cols, rows) -> None:
        self.schema = schema
        self.io = [0, 0, 0, 0]
        self.data: dict = {}
        pos = schema.index_of
        self.keys = [(tuple(pos(c) for c in sorted(key)), {}) for key in schema.keys]
        self.indexes = {cols: (tuple(pos(c) for c in cols), {}, {}) for cols in index_cols}
        for row in rows:
            self._apply_row(row, 1)

    def apply(self, delta: Delta) -> Delta:
        """Apply ``delta`` row by row; returns the inverse built from the
        rows applied: each modify swapped, inserts and deletes exchanged."""
        applied: list = []
        try:
            pairs = self._modifies(delta.modifies, applied)
            inserted = self._rows(delta.inserts, 1, applied)
            deleted = self._rows(delta.deletes, -1, applied)
        except (StorageError, TypeError_):
            for row, count in reversed(applied):
                self._apply_row(row, -count)
            raise
        return Delta(
            inserts=Multiset(deleted),
            deletes=Multiset(inserted),
            modifies=[(new, old) for old, new in pairs],
        )

    def _modifies(self, modifies, applied) -> list:
        if not modifies:
            return []
        for positions, _, _ in self.indexes.values():
            pairs = [(_key(positions, old), _key(positions, new)) for old, new in modifies]
            self.io[0] += len({k for pair in pairs for k in pair})
            self.io[1] += len({k for ko, kn in pairs if ko != kn for k in (ko, kn)})
        pairs = []
        for old, new in modifies:
            old, new = self.schema.validate_tuple(old), self.schema.validate_tuple(new)
            if old not in self.data:
                raise StorageError("modify of absent tuple")
            self.io[2] += 1
            self.io[3] += 1
            self._apply_row(old, -1, applied)
            pairs.append((old, new))
        for _, new in pairs:
            self._apply_row(new, 1, applied)
        return pairs

    def _rows(self, rows: Multiset, sign: int, applied) -> dict:
        if not rows:
            return {}
        for positions, _, _ in self.indexes.values():
            pages = len({_key(positions, row) for row in rows.rows()})
            self.io[0] += pages
            self.io[1] += pages
        done = {}
        for row, count in rows.items():
            row = self.schema.validate_tuple(row)
            if sign < 0 and self.data.get(row, 0) < count:
                raise StorageError("delete of absent tuple")
            self.io[3] += count
            self._apply_row(row, sign * count, applied)
            done[row] = count
        return done

    def _apply_row(self, row, count: int, applied=None) -> None:
        for positions, key_map in self.keys:
            if count > 0 and (count > 1 or _key(positions, row) in key_map):
                raise StorageError("key violated")
        for positions, key_map in self.keys:
            if count > 0:
                key_map[_key(positions, row)] = row
            else:
                key_map.pop(_key(positions, row), None)
        _bump(self.data, row, count)
        for positions, buckets, totals in self.indexes.values():
            key = _key(positions, row)
            bucket = buckets.setdefault(key, {})
            _bump(bucket, row, count)
            if bucket:
                totals[key] = totals.get(key, 0) + count
            else:
                del buckets[key], totals[key]
        if applied is not None:
            applied.append((row, count))

    def state(self):
        return (
            self.data,
            sum(self.data.values()),
            [key_map for _, key_map in self.keys],
            {cols: buckets for cols, (_, buckets, _) in self.indexes.items()},
        )

    def totals(self):
        return {cols: totals for cols, (_, _, totals) in self.indexes.items()}


def _key(positions, row):
    return tuple(row[i] for i in positions)


def _bump(counts: dict, row, count: int) -> None:
    n = counts.get(row, 0) + count
    if n:
        counts[row] = n
    else:
        del counts[row]


# Every value a drawn row can hold, so probing it finds every key map entry.
DOMAIN = range(10)


def _key_map(rel: StoredRelation, columns: list[str]) -> dict:
    """One key's map as its probes see it: key value -> the row."""
    out = {}
    for value in product(DOMAIN, repeat=len(columns)):
        found, rows = rel.candidates(dict(zip(columns, value)))
        assert found == tuple(columns) and len(rows) <= 1
        if rows:
            out[value] = rows[0]
    return out


def _buckets(rel: StoredRelation) -> dict:
    """Each index as its uncharged probes see it: key value -> the (row ->
    count) of its bucket, for every key a drawn row can hold."""
    out = {}
    for cols in rel.indexes:
        index = rel.index_on(cols)
        found = ((k, index.probe_free(k)) for k in product(DOMAIN, repeat=len(cols)))
        out[cols] = {k: dict(bucket.items()) for k, bucket in found if bucket}
    return out


def _totals(rel: StoredRelation) -> dict:
    """Each index's charged tuple reads per bucket: what a probe of each
    stored key value costs (charged to the relation's counter)."""
    out = {}
    for cols, buckets in _buckets(rel).items():
        index = rel.index_on(cols)
        totals = out[cols] = {}
        for k in buckets:
            before = rel.counter.snapshot()
            index.probe(k)
            totals[k] = (rel.counter.snapshot() - before).tuple_reads
    return out


def _state(rel: StoredRelation):
    return (
        dict(rel.items()),
        rel.row_count,
        [_key_map(rel, sorted(key)) for key in rel.schema.keys],
        _buckets(rel),
    )


ROW = st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 3))
# Rows entering the relation range over more keys, so some miss the stored ones.
NEW_ROW = st.tuples(st.integers(0, 9), st.integers(0, 2), st.integers(0, 3))


@st.composite
def scenario(draw):
    """(schema, index columns, stored rows, delta)."""
    schema = draw(st.sampled_from([KEYED, TWO_KEYS, BAG]))
    rows = draw(st.lists(ROW, max_size=8))
    for key in schema.keys:  # one row per value of each key
        positions = [schema.index_of(c) for c in sorted(key)]
        rows = list({tuple(row[i] for i in positions): row for row in rows}.values())
    if not schema.keys and rows:  # a bag: some rows stored more than once
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    index_cols = draw(st.lists(st.sampled_from(INDEXES), max_size=2, unique=True))
    stored = st.sampled_from(rows or [None])
    # A new row keeps or replaces each column of its old one, so keys swap
    # and collide and several modifies share a bucket.
    modifies = []
    olds = draw(st.lists(stored, max_size=5, unique=True)) if rows else []
    for old in olds:
        new = tuple(value if draw(st.booleans()) else draw(st.integers(0, 9)) for value in old)
        modifies.append((old, new))
    rest = sorted(set(rows) - set(olds))
    if len(rest) > 1 and draw(st.booleans()):  # a modify chain a -> b, b -> c
        a, b = draw(st.lists(st.sampled_from(rest), min_size=2, max_size=2, unique=True))
        modifies += [(a, b), (b, draw(NEW_ROW))]
    inserts = Multiset(draw(st.lists(NEW_ROW, max_size=3)))
    deletes = Multiset(draw(st.lists(stored, max_size=3, unique=True)) if rows else [])
    faults = draw(st.sets(st.sampled_from(["both", "absent old", "absent delete", "mistyped"])))
    if "both" in faults:  # one row both inserted and deleted
        both = draw(NEW_ROW)
        inserts.add(both)
        deletes.add(both)
    if "absent old" in faults:  # absent unless the draw hits a stored row
        modifies.append((draw(ROW), draw(ROW)))
    if "absent delete" in faults:
        deletes.add(draw(ROW))
    if "mistyped" in faults:
        inserts.add((0, 0, "x"))
    return schema, index_cols, rows, Delta(inserts=inserts, deletes=deletes, modifies=modifies)


def _stored(schema, index_cols, rows) -> StoredRelation:
    rel = StoredRelation("R", schema)
    rel.load(rows)
    for cols in index_cols:
        rel.create_index(cols)
    return rel


@settings(max_examples=400, deadline=None)
@given(scenario())
# A mistyped insert after a valid one: both sides must reject it whole.
@example((KEYED, [("G",)], [], Delta.insertion([(0, 0, 0), (0, 0, "x")])))
def test_batched_apply_matches_per_row_reference(case):
    schema, index_cols, rows, delta = case
    rel = _stored(schema, index_cols, rows)
    ref = PerRowRelation(schema, index_cols, rows)
    start = _state(rel)
    assert start == ref.state()
    start_totals = {cols: dict(totals) for cols, totals in ref.totals().items()}
    try:
        ref_inverse = ref.apply(delta)
    except (StorageError, TypeError_) as exc:
        event(f"rejected: {type(exc).__name__}")
        with pytest.raises((StorageError, TypeError_)):
            rel.apply_delta(delta)
        assert _state(rel) == start == ref.state()
        assert rel.counter.snapshot() == IOStats()
        assert _totals(rel) == start_totals == ref.totals()
        return
    rel.apply_delta(delta)
    event("applied" + (" with an index write" if ref.io[1] else ""))
    assert _state(rel) == ref.state()
    assert rel.counter.snapshot() == IOStats(*ref.io)
    assert _totals(rel) == ref.totals()
    inverse = delta.inverted()
    assert inverse == ref_inverse
    try:
        ref.apply(inverse)
    except StorageError:
        # An inverse replays its modifies before its inserts, so one whose
        # modifies need a row its inserts bring back is rejected by both.
        event("inverse rejected")
        with pytest.raises(StorageError):
            rel.apply_delta(inverse)
        return
    with rel.counter.suspended():
        rel.apply_delta(inverse)
    assert _state(rel) == start == ref.state()
