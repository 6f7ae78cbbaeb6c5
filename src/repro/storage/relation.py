"""Stored relations: multiset contents, hash indexes, charged maintenance.

The charging policy implements the paper's Section 3.6 accounting exactly:

* **lookup** — one index-page read plus one tuple-page read per match;
* **modification** — per index, one index-page read per distinct key
  touched (an index-page *write* only when the indexed columns change);
  per tuple, one page read (old value) and one page write (new value);
* **insertion** — one page write per tuple; per index, one index-page read
  and one index-page write per distinct key;
* **deletion** — one page write per tuple; per index, one index-page read
  and one index-page write per distinct key.

Declared candidate keys are enforced incrementally on every mutation, which
is what licenses the optimizer's key-based reasoning (delta completeness,
aggregate push-down). Each key's map holds the row itself, so the same
structure answers point lookups by key (:meth:`StoredRelation.candidates`).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.algebra.compile import tuple_getter
from repro.algebra.multiset import Multiset, Row
from repro.algebra.schema import Schema
from repro.ivm.delta import Delta
from repro.storage.index import HashIndex
from repro.storage.pager import IOCounter


class StorageError(Exception):
    """Raised for storage-level violations (missing index, key violation)."""


class StoredRelation:
    """A stored multiset relation with hash indexes and I/O accounting."""

    def __init__(self, name: str, schema: Schema, counter: IOCounter | None = None) -> None:
        self.name = name
        self.schema = schema
        self.counter = counter if counter is not None else IOCounter()
        self._data = Multiset()
        self._total = 0  # running sum of counts, so row_count is O(1)
        self._indexes: dict[tuple[str, ...], HashIndex] = {}
        # One incremental uniqueness map per declared candidate key
        # (key value -> the one row holding it), with the key's columns in
        # value order and a compiled positional getter per key (this runs
        # once per applied row).
        self._keys: list[tuple[tuple[str, ...], Callable[[Row], tuple], dict[tuple, Row]]] = [
            (
                tuple(sorted(key)),
                tuple_getter(tuple(schema.index_of(a) for a in sorted(key))),
                {},
            )
            for key in schema.keys
        ]
        # Optional durability journal (DurableStore duck type). Set by the
        # Database after the relation's recovered contents are loaded, so
        # bootstrap loads are never double-journaled.
        self._journal = None

    # -- indexes -----------------------------------------------------------------

    def create_index(self, columns: Iterable[str]) -> HashIndex:
        cols = tuple(self.schema.resolve(c) for c in columns)
        if cols in self._indexes:
            return self._indexes[cols]
        index = HashIndex(self.schema, cols, self.counter)
        index.rebuild(self._data)
        self._indexes[cols] = index
        if self._journal is not None:
            self._journal.on_index(self.name, cols)
        return index

    def index_on(self, columns: Iterable[str]) -> HashIndex | None:
        cols = tuple(self.schema.resolve(c) for c in columns)
        return self._indexes.get(cols)

    @property
    def indexes(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self._indexes)

    # -- loading / reading ----------------------------------------------------------

    def load(self, rows: Iterable[Row]) -> None:
        """Bulk load (uncharged — initial materialization is outside the
        paper's maintenance accounting)."""
        loaded = Multiset()
        with self.counter.suspended():
            for row in rows:
                row = self.schema.validate_tuple(row)
                self._apply_row(row, 1)
                loaded.add(row, 1)
        if self._journal is not None and loaded:
            self._journal.on_delta(self.name, Delta(inserts=loaded))

    def load_multiset(self, data: Multiset) -> None:
        loaded = Multiset()
        with self.counter.suspended():
            for row, count in data.items():
                row = self.schema.validate_tuple(row)
                self._apply_row(row, count)
                loaded.add(row, count)
        if self._journal is not None and loaded:
            self._journal.on_delta(self.name, Delta(inserts=loaded))

    def contents(self) -> Multiset:
        """Uncharged copy of the contents (verification / snapshots)."""
        return self._data.copy()

    def rows(self) -> Iterator[Row]:
        """Uncharged iteration over the stored rows, with multiplicity, in
        place (no copy): the relation must not change while it runs."""
        return self._data.expand()

    def candidates(self, pins: Mapping[str, Any]) -> list[Row] | None:
        """Uncharged point access: the stored rows (with multiplicity) that
        may hold ``pins`` (schema column -> value), found through a declared
        key's map when the pins cover a key (at most one row), else through
        the smallest matching bucket of a hash index on pinned columns.
        ``None`` when the pins cover neither — the caller scans. Only the
        pinned columns of the covering key or index are matched, so the
        caller still checks its full predicate on each row."""
        if not pins:
            return None
        for columns, _, key_map in self._keys:
            if all(c in pins for c in columns):
                row = key_map.get(tuple(pins[c] for c in columns))
                return [] if row is None else [row]
        best: Multiset | None = None
        for columns, index in self._indexes.items():
            if all(c in pins for c in columns):
                bucket = index.probe_free(tuple(pins[c] for c in columns))
                if best is None or len(bucket) < len(best):
                    best = bucket
        return None if best is None else list(best.expand())

    def scan(self) -> Multiset:
        """Full scan: one tuple-page read per tuple."""
        self.counter.charge_tuple_read(self._total)
        return self._data.copy()

    def lookup(self, columns: Iterable[str], key: tuple[Any, ...]) -> Multiset:
        """Indexed lookup: 1 index page + 1 page per matching tuple.

        Raises :class:`StorageError` when no index on ``columns`` exists —
        the executor decides explicitly when to fall back to a scan.
        """
        cols = tuple(self.schema.resolve(c) for c in columns)
        index = self._indexes.get(cols)
        if index is None:
            raise StorageError(f"no index on {cols} for relation {self.name}")
        return index.probe(key)

    def lookup_many(
        self, columns: Iterable[str], keys: Iterable[tuple[Any, ...]]
    ) -> Multiset:
        """Batched indexed lookup; charges identically to per-key ``lookup``."""
        cols = tuple(self.schema.resolve(c) for c in columns)
        index = self._indexes.get(cols)
        if index is None:
            raise StorageError(f"no index on {cols} for relation {self.name}")
        return index.probe_many(keys)

    def lookup_buckets(
        self, columns: Iterable[str], keys: Iterable[tuple[Any, ...]]
    ) -> dict[tuple[Any, ...], Multiset]:
        """Bucket-grained batched lookup (see :meth:`HashIndex.probe_buckets`);
        charges identically to :meth:`lookup_many`. The returned buckets are
        borrowed read-only views of the index."""
        cols = tuple(self.schema.resolve(c) for c in columns)
        index = self._indexes.get(cols)
        if index is None:
            raise StorageError(f"no index on {cols} for relation {self.name}")
        return index.probe_buckets(keys)

    @property
    def row_count(self) -> int:
        return self._total

    # -- maintenance ------------------------------------------------------------------

    def apply_delta(self, delta: Delta) -> Delta:
        """Apply a delta with the paper's charging policy.

        Returns the **inverse delta** (O(|delta|)): applying it restores
        the pre-delta contents exactly — the engine layer's rollback
        primitive. Application is atomic: if any row fails validation
        (absent tuple, key violation), every row already applied is undone
        (uncharged) before the error propagates, so the relation is never
        left mid-delta.
        """
        applied: list[tuple[Row, int]] = []
        try:
            self._charge_and_apply_modifies(delta.modifies, applied)
            self._charge_and_apply(delta.inserts, sign=+1, applied=applied)
            self._charge_and_apply(delta.deletes, sign=-1, applied=applied)
        except StorageError:
            with self.counter.suspended():
                for row, count in reversed(applied):
                    self._apply_row(row, -count)
            raise
        if self._journal is not None:
            self._journal.on_delta(self.name, delta)
        return delta.inverted()

    def _charge_and_apply_modifies(
        self, modifies: list[tuple[Row, Row]], applied: list[tuple[Row, int]] | None = None
    ) -> None:
        if not modifies:
            return
        for index in self._indexes.values():
            key_of = index.key_of
            pairs = [(key_of(old), key_of(new)) for old, new in modifies]
            self.counter.charge_index_read(len({k for pair in pairs for k in pair}))
            changed_pages = {
                key for ko, kn in pairs if ko != kn for key in (ko, kn)
            }
            if changed_pages:
                self.counter.charge_index_write(len(changed_pages))
        # Remove all old values before adding any new ones so that
        # key-swapping batches do not trip the uniqueness check transiently.
        validated = []
        for old, new in modifies:
            old = self.schema.validate_tuple(old)
            new = self.schema.validate_tuple(new)
            if old not in self._data:
                raise StorageError(f"modify of absent tuple {old} in {self.name}")
            self.counter.charge_tuple_read(1)
            self.counter.charge_tuple_write(1)
            self._apply_row(old, -1, applied)
            validated.append(new)
        for new in validated:
            self._apply_row(new, 1, applied)

    def _charge_and_apply(
        self, rows: Multiset, sign: int, applied: list[tuple[Row, int]] | None = None
    ) -> None:
        if not rows:
            return
        for index in self._indexes.values():
            keys = index.keys_touched(rows.rows())
            self.counter.charge_index_read(keys)
            self.counter.charge_index_write(keys)
        for row, count in rows.items():
            row = self.schema.validate_tuple(row)
            if sign < 0 and self._data.count(row) < count:
                raise StorageError(f"delete of absent tuple {row} from {self.name}")
            self.counter.charge_tuple_write(count)
            self._apply_row(row, sign * count, applied)

    def _apply_row(
        self, row: Row, count: int, applied: list[tuple[Row, int]] | None = None
    ) -> None:
        """Apply one row-count change to data, indexes, and key maps.

        Validates every candidate key *before* mutating anything, so a key
        violation leaves the relation untouched; when ``applied`` is given,
        the change is journaled for the caller's atomicity rollback."""
        staged = []
        for columns, getter, key_map in self._keys:
            kv = getter(row)
            # A key value is held by at most one row, so any insert beyond
            # one copy, or onto a held value, violates the key.
            if count > 0 and (count > 1 or kv in key_map):
                raise StorageError(f"key {list(columns)} violated in {self.name} by {kv}")
            staged.append((key_map, kv))
        for key_map, kv in staged:
            if count > 0:
                key_map[kv] = row
            else:
                key_map.pop(kv, None)
        counts = self._data._counts
        new = counts.get(row, 0) + count
        if new == 0:
            counts.pop(row, None)
        else:
            counts[row] = new
        self._total += count
        for index in self._indexes.values():
            index.add(row, count)
        if applied is not None:
            applied.append((row, count))

    def __repr__(self) -> str:
        return f"<StoredRelation {self.name}: {self.row_count} rows, {len(self._indexes)} indexes>"
