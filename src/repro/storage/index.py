"""Hash indexes over stored relations.

An index maps a key (values of the indexed columns) to the rows with that
key. Following the paper's model (§3.6), a probe costs one index-page I/O
plus one tuple page per match, and maintenance (charged per delta by the
owning relation) touches one index page per distinct key, written only when
a row enters or leaves its bucket.

The paper's secondary indexes are unclustered: an entry points at a tuple.
So on a relation with a declared key, a :class:`HashIndex` bucket is a dict
holding the first-key values of its rows — the objects that key the
relation's row map — and a probe resolves them through that map. A modify
that keeps every index key and its first key rewrites the row in the map
and touches no bucket. A one-column key's values are bare scalars, and a
dict holding only scalars is never tracked by the cyclic collector, so no
collection ever walks such a bucket. A keyless relation's bucket is a
:class:`Multiset` of rows with a running total.

Either way a bucket lists its rows in the order a scan of the relation
meets them: the relation moves a row to the end of the scan exactly when it
moves its key to the end of its buckets.

An index on exactly a declared candidate key is a :class:`KeyIndex`: each
of its buckets would hold one row, so the relation's own key map (key value
-> the row) answers it, and it keeps no buckets of its own. Both classes
charge through :func:`index_pages`, so the choice never moves a page count.
"""

from __future__ import annotations

from itertools import chain
from operator import eq, itemgetter, neg
from typing import Any, Callable, Iterable

from repro.algebra.compile import tuple_getter
from repro.algebra.multiset import Multiset, Row
from repro.algebra.schema import Schema
from repro.storage.pager import IOCounter

_first = itemgetter(0)


def index_pages(kos: list, kns: list, iks: list, dks: list) -> tuple[int, int]:
    """The (read, written) index pages of a validated delta, given the index
    keys of its modifies' old and new sides, its inserts and its deletes:
    per distinct key of each part, one of each, except that a modify keeping
    its key writes nothing."""
    reads = writes = 0
    if kos:
        if kos == kns:
            reads = len(set(kos))
        else:
            reads = len(set(kos).union(kns))
            moved = [(ko, kn) for ko, kn in zip(kos, kns) if ko != kn]
            writes = len({key for pair in moved for key in pair})
    for keys in (iks, dks):
        if keys:
            pages = len(set(keys))
            reads += pages
            writes += pages
    return reads, writes


class HashIndex:
    """A hash index on a fixed tuple of columns.

    On a relation with a declared key, ``rows`` is the relation's first key
    map (first-key value -> the row) and each bucket is a dict holding the
    first-key values of its rows — the map's own key objects — in the order
    the map scans them; a probe resolves them through the map. Without a key
    (``rows`` is ``None``) a bucket is a :class:`Multiset` of rows with a
    running total.
    """

    def __init__(
        self,
        schema: Schema,
        columns: tuple[str, ...],
        counter: IOCounter,
        rows: dict[Any, Row] | None = None,
    ) -> None:
        self.columns = tuple(schema.resolve(c) for c in columns)
        self._positions = tuple(schema.index_of(c) for c in self.columns)
        self._buckets: dict[tuple[Any, ...], Any] = {}
        # Per-bucket tuple totals of a keyless index, so a probe can charge
        # its matches without re-summing the bucket's counts.
        self._totals: dict[tuple[Any, ...], int] = {}
        self._counter = counter
        # key_of sits on every index-maintenance path; bind it to a compiled
        # positional getter instead of a per-call generator expression.
        self.key_of: Callable[[Row], tuple[Any, ...]] = tuple_getter(self._positions)
        # The key as a bare value on a one-column index: it compares and
        # counts as the key does, and building it allocates nothing.
        self._value_of: Callable[[Row], Any] = itemgetter(*self._positions)
        self.rows = rows
        if rows is not None:
            self._join(map(self.key_of, rows.values()), rows)

    @property
    def shape(self) -> str:
        """How :meth:`probe_buckets` answers: ``"refs"``, buckets of first-key
        values resolved through :attr:`rows`; ``"buckets"``, row multisets."""
        return "buckets" if self.rows is None else "refs"

    # -- probes -------------------------------------------------------------------

    def probe(self, key: tuple[Any, ...]) -> Multiset:
        """Look up a key: one index-page read, one tuple read per match."""
        self._counter.charge_index_read()
        out = Multiset()
        bucket = self._buckets.get(key)
        if bucket is not None:
            self._counter.charge_tuple_read(
                self._totals[key] if self.rows is None else len(bucket)
            )
            out._counts = self._copy(bucket)
        return out

    def probe_many(self, keys: Iterable[tuple[Any, ...]]) -> Multiset:
        """Look up a batch of keys, accumulating matches into one multiset.

        Charges exactly what the equivalent :meth:`probe` loop would — one
        index-page read per key, one tuple read per match — but skips the
        per-key bucket copy and per-key result merge.
        """
        out = Multiset()
        counts = out._counts
        buckets = self._buckets
        # Distinct keys have disjoint buckets, so each row is found once.
        distinct = isinstance(keys, (set, frozenset, dict))
        if self.rows is not None:
            keys = keys if distinct else list(keys)
            refs = list(chain.from_iterable(filter(None, map(buckets.get, keys))))
            rows = map(self.rows.__getitem__, refs)
            if distinct:
                out._counts = dict.fromkeys(rows, 1)
            else:
                for row in rows:
                    counts[row] = counts.get(row, 0) + 1
            self._counter.charge_index_read(len(keys))
            self._counter.charge_tuple_read(len(refs))
            return out
        totals = self._totals
        n_keys = 0
        matches = 0
        if distinct:
            # Each bucket's counts merge with a C-level dict update.
            n_keys = len(keys)
            for key in keys:
                bucket = buckets.get(key)
                if bucket is None:
                    continue
                matches += totals[key]
                counts.update(bucket._counts)
        else:
            for key in keys:
                n_keys += 1
                bucket = buckets.get(key)
                if bucket is None:
                    continue
                matches += totals[key]
                for row, count in bucket.items():
                    counts[row] = counts.get(row, 0) + count
        self._counter.charge_index_read(n_keys)
        self._counter.charge_tuple_read(matches)
        return out

    def probe_buckets(self, keys: Iterable[tuple[Any, ...]]) -> dict[tuple[Any, ...], Any]:
        """Bucket-grained batched lookup: same charges as :meth:`probe_many`
        (one index-page read per key, one tuple read per match), but returns
        the matching ``{key: bucket}`` mapping instead of flattening it, so a
        probe-side join can consume the index's own hash layout without
        rebuilding it. Each bucket is in :attr:`shape`. The buckets are
        **borrowed, read-only** views — they must be consumed before any
        maintenance touches this index, and never mutated.
        """
        out: dict[tuple[Any, ...], Any] = {}
        buckets = self._buckets
        total = None if self.rows is not None else self._totals.__getitem__
        n_keys = 0
        matches = 0
        for key in keys:
            n_keys += 1
            bucket = buckets.get(key)
            if bucket is not None:
                matches += len(bucket) if total is None else total(key)
                out[key] = bucket
        self._counter.charge_index_read(n_keys)
        self._counter.charge_tuple_read(matches)
        return out

    def probe_free(self, key: tuple[Any, ...]) -> Multiset:
        """Look up a key without charging I/O (used internally by storage
        when tuples are already being paid for at the relation level)."""
        out = Multiset()
        bucket = self._buckets.get(key)
        if bucket is not None:
            out._counts = self._copy(bucket)
        return out

    def _copy(self, bucket: Any) -> dict[Row, int]:
        """A bucket's rows and their counts, as a new dict."""
        if self.rows is None:
            return bucket._counts.copy()
        return dict.fromkeys(map(self.rows.__getitem__, bucket), 1)

    # -- maintenance ----------------------------------------------------------------

    def update(
        self, olds: list[Row], news: list[Row], inserts: dict[Row, int], deletes: dict[Row, int]
    ) -> tuple[int, int]:
        """Apply a validated delta to a keyless index — (old, new) pairs, then
        inserts, then deletes — and return the (read, written) index pages
        of :func:`index_pages`. A pair keeping its key swaps old for new
        inside its bucket: no bucket is made or dropped and no total
        moves."""
        key_of = self.key_of
        kos, kns = list(map(key_of, olds)), list(map(key_of, news))
        iks, dks = list(map(key_of, inserts)), list(map(key_of, deletes))
        if olds:
            buckets = self._buckets
            moved: list[tuple] = []
            for old, new, ko, kn in zip(olds, news, kos, kns):
                if ko != kn:
                    moved += ((ko, old, -1), (kn, new, 1))
                    continue
                counts = buckets[ko]._counts
                n = counts[old] - 1
                if n:
                    counts[old] = n
                else:
                    del counts[old]
                counts[new] = counts.get(new, 0) + 1
            if moved:
                self._add_many(moved)
        if inserts:
            self._add_many(zip(iks, inserts, inserts.values()))
        if deletes:
            self._add_many(zip(dks, deletes, map(neg, deletes.values())))
        return index_pages(kos, kns, iks, dks)

    def keeps(self, olds: list[Row], news: list[Row]) -> bool:
        """Whether every (old, new) pair keeps its key in this index."""
        value_of = self._value_of
        return all(map(eq, map(value_of, olds), map(value_of, news)))

    def move(
        self,
        olds: list[Row],
        news: list[Row],
        inserts: dict[Row, int],
        deletes: dict[Row, int],
        refs: tuple[list, list, list, list],
        in_place: bool,
    ) -> tuple[int, int]:
        """Apply a validated delta to a keyed relation's index and return
        the (read, written) index pages of :func:`index_pages`. ``refs`` are
        the first-key values of the delta's modifies' old and new sides,
        inserts and deletes. ``in_place`` is the relation's word that every
        pair keeps every index key and its first key: the pairs then touch
        no bucket, as each row keeps its slot in the key map. Else the pairs
        all leave their buckets and then join the ends of their new ones, as
        they leave and rejoin the key map. Inserts join, then deletes leave.

        Distinct keys are counted on :attr:`_value_of` values, so a
        one-column index builds no tuple to price a part, and a bucket is
        found through a key tuple that dies at once."""
        key_of, value_of = self.key_of, self._value_of
        fos, fns, fis, fds = refs
        buckets = self._buckets
        reads = writes = 0
        if olds and in_place:
            reads = len(set(map(value_of, olds)))
        elif olds:
            kos, kns = list(map(key_of, olds)), list(map(key_of, news))
            reads, writes = index_pages(kos, kns, [], [])
            for key, ref in zip(kos, fos):
                del buckets[key][ref]
            self._join(kns, fns)
            for key in set(kos):
                if not buckets[key]:
                    del buckets[key]
        if inserts:
            self._join(map(key_of, inserts), fis)
        for row, ref in zip(deletes, fds):
            key = key_of(row)
            bucket = buckets[key]
            del bucket[ref]
            if not bucket:
                del buckets[key]
        for part in (inserts, deletes):
            if part:
                pages = len(set(map(value_of, part)))
                reads += pages
                writes += pages
        return reads, writes

    def _join(self, keys: Iterable[tuple[Any, ...]], refs: Iterable[Any]) -> None:
        """Append first-key values to the ends of their buckets, creating
        buckets as they are first needed."""
        buckets = self._buckets
        for key, ref in zip(keys, refs):
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = {ref: None}
            else:
                bucket[ref] = None

    def _add_many(self, entries: Iterable[tuple[tuple[Any, ...], Row, int]]) -> None:
        """Apply signed ``(key, row, count)`` changes to a keyless index in
        order, creating buckets as rows arrive and dropping those they
        empty."""
        buckets = self._buckets
        totals = self._totals
        for key, row, count in entries:
            bucket = buckets.get(key)
            if bucket is None:
                bucket = buckets[key] = Multiset()
                totals[key] = 0
            counts = bucket._counts
            new = counts.get(row, 0) + count
            if new:
                counts[row] = new
            else:
                del counts[row]
                if not counts:
                    del buckets[key], totals[key]
                    continue
            totals[key] += count

    def distinct_keys(self) -> int:
        return len(self._buckets)

    def rebuild(self, items: Iterable[tuple[Row, int]]) -> None:
        """Refill a keyless index's buckets from the relation's ``(row,
        count)`` pairs."""
        self._buckets.clear()
        self._totals.clear()
        key_of = self.key_of
        self._add_many((key_of(row), row, count) for row, count in items)


class KeyIndex:
    """An index on exactly a declared candidate key, answered from the owning
    relation's key map (key value -> the one row holding it).

    It probes and charges exactly as a :class:`HashIndex` on the same
    columns would (each bucket holding one row of count one), but keeps
    nothing of its own: the relation maintains the map while checking the
    key and prices each delta with :func:`index_pages` from the key values
    it computed for that check. :meth:`probe_buckets` hands out the row
    itself rather than a one-row bucket. Probe keys are index-key tuples;
    the map of a one-column key holds the bare value.
    """

    shape = "keyed"

    def __init__(
        self, schema: Schema, columns: tuple[str, ...], counter: IOCounter, rows: dict
    ) -> None:
        self.columns = tuple(schema.resolve(c) for c in columns)
        self.rows = rows
        self._counter = counter
        self.key_of: Callable[[Row], tuple[Any, ...]] = tuple_getter(
            tuple(schema.index_of(c) for c in self.columns)
        )
        self._bare = len(self.columns) == 1

    def _find(self, keys: Iterable[tuple[Any, ...]]) -> Iterable[Row | None]:
        """The row, or ``None``, that each probe key finds, in order."""
        return map(self.rows.get, map(_first, keys) if self._bare else keys)

    # -- probes -------------------------------------------------------------------

    def probe(self, key: tuple[Any, ...]) -> Multiset:
        """Look up a key: one index-page read, one tuple read on a match."""
        self._counter.charge_index_read()
        out = Multiset()
        row = self.rows.get(key[0] if self._bare else key)
        if row is not None:
            self._counter.charge_tuple_read(1)
            out._counts[row] = 1
        return out

    def probe_many(self, keys: Iterable[tuple[Any, ...]]) -> Multiset:
        """Look up a batch of keys, charged as the :meth:`probe` loop."""
        out = Multiset()
        if isinstance(keys, (set, frozenset, dict)):
            # Distinct keys hold distinct rows.
            out._counts = {row: 1 for row in self._find(keys) if row is not None}
            n_keys, matches = len(keys), len(out._counts)
        else:
            counts = out._counts
            n_keys = matches = 0
            for row in self._find(keys):
                n_keys += 1
                if row is not None:
                    matches += 1
                    counts[row] = counts.get(row, 0) + 1
        self._counter.charge_index_read(n_keys)
        self._counter.charge_tuple_read(matches)
        return out

    def probe_buckets(self, keys: Iterable[tuple[Any, ...]]) -> dict[tuple[Any, ...], Row]:
        """Batched lookup as ``{key: row}`` — one row per key, where a
        :class:`HashIndex` returns ``{key: bucket}`` — charged as
        :meth:`probe_many`."""
        if isinstance(keys, (set, frozenset, dict)):
            found = zip(keys, self._find(keys))
            out = {key: row for key, row in found if row is not None}
            n_keys, matches = len(keys), len(out)
        else:
            keys = list(keys)
            out = {}
            n_keys, matches = len(keys), 0
            for key, row in zip(keys, self._find(keys)):
                if row is not None:
                    matches += 1
                    out[key] = row
        self._counter.charge_index_read(n_keys)
        self._counter.charge_tuple_read(matches)
        return out

    def probe_free(self, key: tuple[Any, ...]) -> Multiset:
        """Look up a key without charging I/O."""
        row = self.rows.get(key[0] if self._bare else key)
        return Multiset() if row is None else Multiset((row,))

    def distinct_keys(self) -> int:
        return len(self.rows)
