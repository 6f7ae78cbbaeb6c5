"""Hash indexes over stored relations.

An index maps a key (values of the indexed columns) to the multiset of rows
with that key. Following the paper's model, a probe costs one index-page
I/O; maintenance (charged per delta by the owning relation) touches one index
page per distinct key, written only when a row enters or leaves its bucket.

An index on exactly a declared candidate key is a :class:`KeyIndex`: each
of its buckets would hold one row, so the relation's own key map (key value
-> the row) answers it, and it keeps no buckets of its own. Both classes
charge through :func:`index_pages`, so the choice never moves a page count.
"""

from __future__ import annotations

from operator import neg
from typing import Any, Callable, Iterable

from repro.algebra.compile import tuple_getter
from repro.algebra.multiset import Multiset, Row
from repro.algebra.schema import Schema
from repro.storage.pager import IOCounter


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
    """A hash index on a fixed tuple of columns."""

    def __init__(self, schema: Schema, columns: tuple[str, ...], counter: IOCounter) -> None:
        self.columns = tuple(schema.resolve(c) for c in columns)
        self._positions = tuple(schema.index_of(c) for c in self.columns)
        self._buckets: dict[tuple[Any, ...], Multiset] = {}
        # Per-bucket tuple totals, so a probe can charge its matches without
        # re-summing the bucket's counts.
        self._totals: dict[tuple[Any, ...], int] = {}
        self._counter = counter
        # key_of sits on every index-maintenance path; bind it to a compiled
        # positional getter instead of a per-call generator expression.
        self.key_of: Callable[[Row], tuple[Any, ...]] = tuple_getter(self._positions)

    # -- probes -------------------------------------------------------------------

    def probe(self, key: tuple[Any, ...]) -> Multiset:
        """Look up a key: one index-page read, one tuple read per match."""
        self._counter.charge_index_read()
        bucket = self._buckets.get(key)
        if bucket is None:
            return Multiset()
        self._counter.charge_tuple_read(self._totals[key])
        return bucket.copy()

    def probe_many(self, keys: Iterable[tuple[Any, ...]]) -> Multiset:
        """Look up a batch of keys, accumulating matches into one multiset.

        Charges exactly what the equivalent :meth:`probe` loop would — one
        index-page read per key, one tuple read per match — but skips the
        per-key bucket copy and per-key result merge.
        """
        out = Multiset()
        counts = out._counts
        buckets = self._buckets
        totals = self._totals
        n_keys = 0
        matches = 0
        if isinstance(keys, (set, frozenset, dict)):
            # Distinct keys have disjoint buckets, so each bucket's counts
            # can be merged with a C-level dict update instead of row-wise.
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

    def probe_buckets(self, keys: Iterable[tuple[Any, ...]]) -> dict[tuple[Any, ...], Multiset]:
        """Bucket-grained batched lookup: same charges as :meth:`probe_many`
        (one index-page read per key, one tuple read per match), but returns
        the matching ``{key: bucket}`` mapping instead of flattening it, so a
        probe-side join can consume the index's own hash layout without
        rebuilding it. The buckets are **borrowed, read-only** views — they
        must be consumed before any maintenance touches this index, and
        never mutated.
        """
        out: dict[tuple[Any, ...], Multiset] = {}
        buckets = self._buckets
        totals = self._totals
        n_keys = 0
        matches = 0
        for key in keys:
            n_keys += 1
            bucket = buckets.get(key)
            if bucket is None:
                continue
            matches += totals[key]
            out[key] = bucket
        self._counter.charge_index_read(n_keys)
        self._counter.charge_tuple_read(matches)
        return out

    def probe_free(self, key: tuple[Any, ...]) -> Multiset:
        """Look up a key without charging I/O (used internally by storage
        when tuples are already being paid for at the relation level)."""
        bucket = self._buckets.get(key)
        return bucket.copy() if bucket is not None else Multiset()

    # -- maintenance ----------------------------------------------------------------

    def update(
        self,
        olds: list[Row],
        news: list[Row],
        inserts: dict[Row, int],
        deletes: dict[Row, int],
        unique_pairs: bool = False,
    ) -> tuple[int, int]:
        """Apply a validated delta — (old, new) pairs, then inserts, then
        deletes — and return the (read, written) index pages of
        :func:`index_pages`. A pair keeping its key swaps old for new inside
        its bucket: no bucket is made or dropped and no total moves.

        ``unique_pairs`` is the owning relation's word that its rows are
        unique (it has a declared key) and that every pair keeps its first
        key. Each old row then counts one and no new row is in its bucket
        yet, so the swap is one delete and one store; the bucket ends as
        the general swap leaves it, in the same order. Pairs that swap
        rows between keys (``a→b, b→a``) do not qualify: the general swap
        counts ``b`` twice for a moment, which the short one would lose."""
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
                if unique_pairs:
                    del counts[old]
                    counts[new] = 1
                    continue
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

    def _add_many(self, entries: Iterable[tuple[tuple[Any, ...], Row, int]]) -> None:
        """Apply signed ``(key, row, count)`` changes in order, creating
        buckets as rows arrive and dropping those they empty."""
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
        """Refill the buckets from the relation's ``(row, count)`` pairs."""
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
    itself rather than a one-row bucket.
    """

    def __init__(
        self, schema: Schema, columns: tuple[str, ...], counter: IOCounter, rows: dict
    ) -> None:
        self.columns = tuple(schema.resolve(c) for c in columns)
        self._rows = rows
        self._counter = counter
        self.key_of: Callable[[Row], tuple[Any, ...]] = tuple_getter(
            tuple(schema.index_of(c) for c in self.columns)
        )

    # -- probes -------------------------------------------------------------------

    def probe(self, key: tuple[Any, ...]) -> Multiset:
        """Look up a key: one index-page read, one tuple read on a match."""
        self._counter.charge_index_read()
        out = Multiset()
        row = self._rows.get(key)
        if row is not None:
            self._counter.charge_tuple_read(1)
            out._counts[row] = 1
        return out

    def probe_many(self, keys: Iterable[tuple[Any, ...]]) -> Multiset:
        """Look up a batch of keys, charged as the :meth:`probe` loop."""
        get = self._rows.get
        out = Multiset()
        if isinstance(keys, (set, frozenset, dict)):
            # Distinct keys hold distinct rows.
            out._counts = {row: 1 for row in map(get, keys) if row is not None}
            n_keys, matches = len(keys), len(out._counts)
        else:
            counts = out._counts
            n_keys = matches = 0
            for key in keys:
                n_keys += 1
                row = get(key)
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
        get = self._rows.get
        if isinstance(keys, (set, frozenset, dict)):
            out = {key: row for key in keys if (row := get(key)) is not None}
            n_keys, matches = len(keys), len(out)
        else:
            out = {}
            n_keys = matches = 0
            for key in keys:
                n_keys += 1
                row = get(key)
                if row is not None:
                    matches += 1
                    out[key] = row
        self._counter.charge_index_read(n_keys)
        self._counter.charge_tuple_read(matches)
        return out

    def probe_free(self, key: tuple[Any, ...]) -> Multiset:
        """Look up a key without charging I/O."""
        row = self._rows.get(key)
        return Multiset() if row is None else Multiset((row,))

    def distinct_keys(self) -> int:
        return len(self._rows)
