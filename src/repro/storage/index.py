"""Hash indexes over stored relations.

An index maps a key (values of the indexed columns) to the rows with that
key. Following the paper's model (§3.6), a probe costs one index-page I/O
plus one tuple page per match, and maintenance (charged per delta by the
owning relation) touches one index page per distinct key, written only when
a row enters or leaves its bucket.

:class:`HashIndex` is the one index class. Its layout, :attr:`HashIndex.shape`,
follows from the owning relation's declared keys:

* ``"keyed"``: the columns are exactly a declared candidate key's (in
  sorted order). Each bucket would hold one row, so the relation's own map
  of that key (key value -> the row) answers, and the index keeps no
  buckets: the relation maintains the map while checking the key.
* ``"refs"``: any other index on a keyed relation. The paper's secondary
  indexes are unclustered: an entry points at a tuple. So a bucket is a
  dict holding the first-key values of its rows (the objects that key the
  relation's row map), and a probe resolves them through that map. A
  one-column key's values are bare scalars, and a dict holding only
  scalars is never tracked by the cyclic collector.
* ``"buckets"``: an index on a keyless relation. A bucket is a
  :class:`Multiset` of rows with a running total.

One core charges every probe, so the layout never moves a page count. One
rule maintains every bucket form (:meth:`HashIndex.update`): modify pairs
leave their buckets and then join the ends of their new ones, unless the
relation keeps them in place; inserts then join, and deletes then leave.
The relation moves a row to the end of its scan exactly when the row moves
to the end of its buckets, so a bucket lists its rows in scan order.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import eq, itemgetter, neg
from typing import Any, Callable, Iterable

from repro.algebra.compile import tuple_getter
from repro.algebra.multiset import Multiset, Row
from repro.algebra.schema import Schema
from repro.storage.pager import IOCounter

_first = itemgetter(0)
# Probe key collections that hold each key once, so their buckets are disjoint.
_DISTINCT = (set, frozenset, dict)


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

    ``rows`` is the owning relation's key map the index answers through:
    the map of exactly its columns on a ``"keyed"`` index, the first key's
    map on a ``"refs"`` one, and ``None`` on a keyless relation, whose
    index holds ``"buckets"`` of rows. Probe keys are index-key tuples; the
    map of a one-column key holds the bare value.
    """

    def __init__(
        self,
        schema: Schema,
        columns: tuple[str, ...],
        counter: IOCounter,
        rows: dict[Any, Row] | None = None,
    ) -> None:
        self.columns = tuple(schema.resolve(c) for c in columns)
        positions = tuple(schema.index_of(c) for c in self.columns)
        self._counter = counter
        # key_of sits on every index-maintenance path; bind it to a compiled
        # positional getter instead of a per-call generator expression.
        self.key_of: Callable[[Row], tuple[Any, ...]] = tuple_getter(positions)
        # The key as a bare value on a one-column index: it compares and
        # counts as the key does, and building it allocates nothing.
        self._value_of: Callable[[Row], Any] = itemgetter(*positions)
        self._bare = len(positions) == 1
        self.rows = rows
        keys = {tuple(sorted(key)) for key in schema.keys}
        #: How :meth:`probe_buckets` answers: ``"keyed"``, the one row per
        #: key; ``"refs"``, buckets of first-key values resolved through
        #: :attr:`rows`; ``"buckets"``, row multisets.
        self.shape = "buckets" if rows is None else "keyed" if self.columns in keys else "refs"
        self._buckets: dict[tuple[Any, ...], Any] = {}
        # Per-bucket tuple totals of a keyless index, so a probe can charge
        # its matches without re-summing the bucket's counts.
        self._totals: dict[tuple[Any, ...], int] = {}
        if self.shape == "refs":
            self._join(map(self.key_of, rows.values()), rows, repeat(1))

    # -- probes -------------------------------------------------------------------

    def _find(self, keys: Iterable[tuple[Any, ...]], charge: bool = True) -> list:
        """What each probe key finds, in order: a bucket in :attr:`shape`
        (on a ``"keyed"`` index, the row itself) or ``None``. Charged, the
        lookup costs one index-page read per key and one tuple read per row
        found. ``keys`` is iterated twice."""
        if self.shape == "keyed":
            found = list(map(self.rows.get, map(_first, keys) if self._bare else keys))
        else:
            found = list(map(self._buckets.get, keys))
        if charge:
            if self.shape == "keyed":
                matches = len(found) - found.count(None)
            elif self.shape == "refs":
                matches = sum(map(len, filter(None, found)))
            else:
                matches = sum(map(self._totals.get, keys, repeat(0)))
            self._counter.charge_index_read(len(found))
            self._counter.charge_tuple_read(matches)
        return found

    def _copy(self, found: Any) -> Multiset:
        """What one key found, as a new multiset of rows."""
        out = Multiset()
        if found is None:
            return out
        if self.shape == "keyed":
            out._counts[found] = 1
        elif self.shape == "refs":
            out._counts = dict.fromkeys(map(self.rows.__getitem__, found), 1)
        else:
            out._counts = found._counts.copy()
        return out

    def probe(self, key: tuple[Any, ...]) -> Multiset:
        """Look up a key: one index-page read, one tuple read per match."""
        return self._copy(self._find((key,))[0])

    def probe_free(self, key: tuple[Any, ...]) -> Multiset:
        """Look up a key without charging I/O (used internally by storage
        when tuples are already being paid for at the relation level)."""
        return self._copy(self._find((key,), charge=False)[0])

    def probe_many(self, keys: Iterable[tuple[Any, ...]]) -> Multiset:
        """Look up a batch of keys, accumulating matches into one multiset.

        Charges exactly what the equivalent :meth:`probe` loop would — one
        index-page read per key, one tuple read per match — but skips the
        per-key bucket copy and per-key result merge.
        """
        distinct = isinstance(keys, _DISTINCT)
        keys = keys if distinct else list(keys)
        hits = filter(None, self._find(keys))
        out = Multiset()
        counts = out._counts
        # Distinct keys have disjoint buckets, so each row is found once.
        if self.shape == "buckets":
            if distinct:
                for bucket in hits:
                    counts.update(bucket._counts)
                return out
            pairs = chain.from_iterable(bucket._counts.items() for bucket in hits)
        else:
            if self.shape == "refs":
                hits = map(self.rows.__getitem__, chain.from_iterable(hits))
            if distinct:
                out._counts = dict.fromkeys(hits, 1)
                return out
            pairs = zip(hits, repeat(1))
        for row, n in pairs:
            counts[row] = counts.get(row, 0) + n
        return out

    def probe_buckets(self, keys: Iterable[tuple[Any, ...]]) -> dict[tuple[Any, ...], Any]:
        """Bucket-grained batched lookup: same charges as :meth:`probe_many`
        (one index-page read per key, one tuple read per match), but returns
        the matching ``{key: bucket}`` mapping instead of flattening it, so a
        probe-side join can consume the index's own hash layout without
        rebuilding it. Each bucket is in :attr:`shape` (on a ``"keyed"``
        index, the one row itself). The buckets are **borrowed, read-only**
        views — they must be consumed before any maintenance touches this
        index, and never mutated.
        """
        keys = keys if isinstance(keys, _DISTINCT) else list(keys)
        return {key: found for key, found in zip(keys, self._find(keys)) if found is not None}

    def distinct_keys(self) -> int:
        return len(self.rows) if self.shape == "keyed" else len(self._buckets)

    # -- maintenance ----------------------------------------------------------------

    def keeps(self, olds: list[Row], news: list[Row]) -> bool:
        """Whether every (old, new) pair keeps its key in this index."""
        value_of = self._value_of
        return all(map(eq, map(value_of, olds), map(value_of, news)))

    def update(
        self,
        olds: list[Row],
        news: list[Row],
        inserts: dict[Row, int],
        deletes: dict[Row, int],
        refs: tuple[Iterable, Iterable, Iterable, Iterable],
        in_place: bool,
    ) -> tuple[int, int]:
        """Apply a validated delta to a bucket index and return the (read,
        written) index pages of :func:`index_pages`. ``refs`` are what the
        buckets hold for the delta's modifies' old and new sides, inserts
        and deletes: their first-key values on a keyed relation, the rows
        themselves on a keyless one. ``in_place`` is the relation's word
        that every pair keeps every index key and its first key: the pairs
        then touch no bucket, as each row keeps its slot in the key map.
        Else all pairs leave their buckets and then all join the ends of
        their new ones, in delta order, as they leave and rejoin the rows.
        Inserts then join, and deletes then leave.

        Distinct keys are counted on :attr:`_value_of` values, so a
        one-column index builds no tuple to price a part, and a bucket is
        found through a key tuple that dies at once."""
        key_of, value_of = self.key_of, self._value_of
        fos, fns, fis, fds = refs
        reads = writes = 0
        if olds and in_place:
            reads = len(set(map(value_of, olds)))
        elif olds:
            kos, kns = list(map(key_of, olds)), list(map(key_of, news))
            reads, writes = index_pages(kos, kns, [], [])
            self._leave(kos, fos, repeat(1))
            self._join(kns, fns, repeat(1))
        if inserts:
            self._join(map(key_of, inserts), fis, inserts.values())
        if deletes:
            self._leave(map(key_of, deletes), fds, deletes.values())
        for part in (inserts, deletes):
            if part:
                pages = len(set(map(value_of, part)))
                reads += pages
                writes += pages
        return reads, writes

    def _join(self, keys: Iterable, refs: Iterable, counts: Iterable[int]) -> None:
        """Append refs to the ends of their buckets, making buckets as they
        are first needed. On a keyless index each ref is a row, joining
        its count of times; elsewhere each joins once."""
        if self.rows is None:
            self._add(zip(keys, refs, counts))
            return
        buckets = self._buckets
        for key, ref in zip(keys, refs):
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = {ref: None}
            else:
                bucket[ref] = None

    def _leave(self, keys: Iterable, refs: Iterable, counts: Iterable[int]) -> None:
        """Take refs out of their buckets, dropping the buckets they empty.
        On a keyless index each ref is a row, leaving its count of times;
        elsewhere each leaves once."""
        if self.rows is None:
            self._add(zip(keys, refs, map(neg, counts)))
            return
        buckets = self._buckets
        for key, ref in zip(keys, refs):
            bucket = buckets[key]
            del bucket[ref]
            if not bucket:
                del buckets[key]

    def _add(self, entries: Iterable[tuple[tuple[Any, ...], Row, int]]) -> None:
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

    def rebuild(self, items: Iterable[tuple[Row, int]]) -> None:
        """Refill a keyless index's buckets from the relation's ``(row,
        count)`` pairs."""
        self._buckets.clear()
        self._totals.clear()
        key_of = self.key_of
        self._add((key_of(row), row, count) for row, count in items)
