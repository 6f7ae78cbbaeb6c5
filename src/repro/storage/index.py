"""Hash indexes over stored relations.

An index maps a key (values of the indexed columns) to the multiset of rows
with that key. Following the paper's model, a probe costs one index-page
I/O; maintenance (charged per delta by the owning relation) touches one index
page per distinct key, written only when a row enters or leaves its bucket.
"""

from __future__ import annotations

from operator import neg
from typing import Any, Callable, Iterable

from repro.algebra.compile import tuple_getter
from repro.algebra.multiset import Multiset, Row
from repro.algebra.schema import Schema
from repro.storage.pager import IOCounter


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
        self, olds: list[Row], news: list[Row], inserts: dict[Row, int], deletes: dict[Row, int]
    ) -> tuple[int, int]:
        """Apply a validated delta — (old, new) pairs, then inserts, then
        deletes — and return the (read, written) index pages: per distinct
        key of each part, one of each, except that a pair keeping its key
        writes nothing. Such a pair swaps old for new inside its bucket: no
        bucket is made or dropped and no total moves."""
        key_of = self.key_of
        reads = writes = 0
        if olds:
            kos, kns = list(map(key_of, olds)), list(map(key_of, news))
            reads = len(set(kos).union(kns))
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
                writes = len({key for key, _, _ in moved})
                self._add_many(moved)
        for rows, signed in ((inserts, inserts.values()), (deletes, map(neg, deletes.values()))):
            if rows:
                keys = list(map(key_of, rows))
                pages = len(set(keys))
                reads += pages
                writes += pages
                self._add_many(zip(keys, rows, signed))
        return reads, writes

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

    def rebuild(self, data: Multiset) -> None:
        self._buckets.clear()
        self._totals.clear()
        key_of = self.key_of
        self._add_many((key_of(row), row, count) for row, count in data.items())
