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

A delta is validated whole (row types, absent tuples, candidate keys)
before any of it is applied or charged, so a rejected delta changes
nothing and charges nothing. The data, each key map and each index are
then updated once per delta, and the charges are sums of distinct keys.
An index on exactly a declared key's columns is that key's map
(:class:`~repro.storage.index.KeyIndex`): the key check maintains it and a
modify that keeps its key costs it nothing beyond its charges.

Declared candidate keys are enforced incrementally on every mutation, which
is what licenses the optimizer's key-based reasoning (delta completeness,
aggregate push-down). Each key's map holds the row itself, so the same
structure answers point lookups by key (:meth:`StoredRelation.candidates`,
pinned by :func:`equality_pins`): ``UPDATE``/``DELETE … WHERE`` and snapshot
``SELECT`` make the one probe choice through it.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.algebra.compile import tuple_getter
from repro.algebra.multiset import Multiset, Row
from repro.algebra.predicates import Compare, Predicate
from repro.algebra.scalar import Col, Const
from repro.algebra.schema import Schema
from repro.ivm.delta import Delta
from repro.storage.index import HashIndex, KeyIndex, index_pages
from repro.storage.pager import IOCounter


def equality_pins(predicate: Predicate, schema: Schema) -> dict[str, tuple[Any, Predicate]]:
    """The predicate's top-level ``column = literal`` conjuncts (either
    operand order) as ``{schema column: (value, conjunct)}`` — the pins
    :meth:`StoredRelation.candidates` probes with. A column pinned twice
    keeps its first conjunct; the others stay in the predicate and reject
    what that pin admits."""
    pins: dict[str, tuple[Any, Predicate]] = {}
    for part in predicate.conjuncts():
        if not (isinstance(part, Compare) and part.op == "="):
            continue
        left, right = part.left, part.right
        if isinstance(left, Const):
            left, right = right, left
        if isinstance(left, Col) and isinstance(right, Const):
            pins.setdefault(schema.resolve(left.name), (right.value, part))
    return pins


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
        self._indexes: dict[tuple[str, ...], HashIndex | KeyIndex] = {}
        # The indexes that keep buckets of their own (not a key's map).
        self._hash_indexes: list[HashIndex] = []
        # One incremental uniqueness map per declared candidate key
        # (key value -> the one row holding it), with the key's columns in
        # value order and a compiled positional getter per key (mapped over
        # every row of an applied delta).
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

    def create_index(self, columns: Iterable[str]) -> HashIndex | KeyIndex:
        """An index on ``columns``: the key's map when they are exactly a
        declared candidate key's (in sorted order), else a hash index."""
        cols = tuple(self.schema.resolve(c) for c in columns)
        if cols in self._indexes:
            return self._indexes[cols]
        key_map = next((m for key_cols, _, m in self._keys if key_cols == cols), None)
        index: HashIndex | KeyIndex
        if key_map is not None:
            index = KeyIndex(self.schema, cols, self.counter, key_map)
        else:
            index = HashIndex(self.schema, cols, self.counter)
            index.rebuild(self._data)
            self._hash_indexes.append(index)
        self._indexes[cols] = index
        if self._journal is not None:
            self._journal.on_index(self.name, cols)
        return index

    def index_on(self, columns: Iterable[str]) -> HashIndex | KeyIndex | None:
        cols = tuple(self.schema.resolve(c) for c in columns)
        return self._indexes.get(cols)

    @property
    def indexes(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self._indexes)

    # -- loading / reading ----------------------------------------------------------

    def load(self, rows: Iterable[Row]) -> None:
        """Bulk load (uncharged — initial materialization is outside the
        paper's maintenance accounting)."""
        self.load_multiset(Multiset(map(self.schema.validate_tuple, rows)))

    def load_multiset(self, data: Multiset) -> None:
        """Insert ``data`` through the same all-or-nothing apply as
        :meth:`apply_delta`, uncharged."""
        with self.counter.suspended():
            loaded = Multiset()
            loaded._counts = self._apply(Delta(inserts=data))
        if self._journal is not None and loaded:
            self._journal.on_delta(self.name, Delta(inserts=loaded))

    def contents(self) -> Multiset:
        """Uncharged copy of the contents (verification / snapshots)."""
        return self._data.copy()

    def rows(self) -> Iterator[Row]:
        """Uncharged iteration over the stored rows, with multiplicity, in
        place (no copy): the relation must not change while it runs."""
        return self._data.expand()

    def items(self) -> Iterator[tuple[Row, int]]:
        """Uncharged iteration over the (row, count) pairs in place (no
        copy): the relation must not change while it runs."""
        return self._data.items()

    def candidates(self, pins: Mapping[str, Any]) -> tuple[tuple[str, ...], list[Row]] | None:
        """Uncharged point access: the stored rows (with multiplicity) that
        may hold ``pins`` (schema column -> value), found through a declared
        key's map when the pins cover a key (at most one row), else through
        the smallest matching bucket of a hash index on pinned columns.
        Returns ``(columns matched, rows)``, or ``None`` when the pins cover
        neither — the caller scans. Only the matched columns are checked,
        so the caller still checks its other pins on each row."""
        if not pins:
            return None
        for columns, _, key_map in self._keys:
            if all(c in pins for c in columns):
                row = key_map.get(tuple(pins[c] for c in columns))
                return columns, [] if row is None else [row]
        best: tuple[tuple[str, ...], Multiset] | None = None
        for columns, index in self._indexes.items():
            if all(c in pins for c in columns):
                bucket = index.probe_free(tuple(pins[c] for c in columns))
                if best is None or len(bucket) < len(best[1]):
                    best = columns, bucket
        return None if best is None else (best[0], list(best[1].expand()))

    def scan(self) -> Multiset:
        """Full scan: one tuple-page read per tuple."""
        self.counter.charge_tuple_read(self._total)
        return self._data.copy()

    def lookup(self, columns: Iterable[str], key: tuple[Any, ...]) -> Multiset:
        """Indexed lookup: 1 index page + 1 page per matching tuple.

        Raises :class:`StorageError` when no index on ``columns`` exists —
        the executor decides explicitly when to fall back to a scan.
        """
        return self._index(columns).probe(key)

    def lookup_many(
        self, columns: Iterable[str], keys: Iterable[tuple[Any, ...]]
    ) -> Multiset:
        """Batched indexed lookup; charges identically to per-key ``lookup``."""
        return self._index(columns).probe_many(keys)

    def lookup_buckets(
        self, columns: Iterable[str], keys: Iterable[tuple[Any, ...]]
    ) -> dict[tuple[Any, ...], Multiset | Row]:
        """Bucket-grained batched lookup (see :meth:`HashIndex.probe_buckets`);
        charges identically to :meth:`lookup_many`. The returned buckets are
        borrowed read-only views of the index — or, on a key's index, the
        one row per key itself (:meth:`KeyIndex.probe_buckets`)."""
        return self._index(columns).probe_buckets(keys)

    def _index(self, columns: Iterable[str]) -> HashIndex | KeyIndex:
        cols = tuple(self.schema.resolve(c) for c in columns)
        index = self._indexes.get(cols)
        if index is None:
            raise StorageError(f"no index on {cols} for relation {self.name}")
        return index

    @property
    def row_count(self) -> int:
        return self._total

    # -- maintenance ------------------------------------------------------------------

    def apply_delta(self, delta: Delta) -> Delta:
        """Apply a delta with the paper's charging policy; returns the
        **inverse delta** (O(|delta|)), whose application restores the
        pre-delta contents exactly — the engine layer's rollback primitive.
        A delta with a mistyped row, an absent tuple or a key violation
        raises before anything is charged or changed."""
        self._apply(delta)
        if self._journal is not None:
            self._journal.on_delta(self.name, delta)
        return delta.inverted()

    def _apply(self, delta: Delta) -> dict[Row, int]:
        """The one apply core: validate the whole delta, then update the
        data, each key map and each index in turn and charge what the
        indexes report. Modifies go before inserts and inserts before
        deletes, each checked against the state the earlier ones leave.
        Returns the validated inserts."""
        validate = self.schema.validate_tuple
        olds = [validate(old) for old, _ in delta.modifies] if delta.modifies else []
        news = [validate(new) for _, new in delta.modifies] if delta.modifies else []
        ins = {validate(r): n for r, n in delta.inserts.items()} if delta.inserts else {}
        dels = {validate(r): n for r, n in delta.deletes.items()} if delta.deletes else {}
        counts = self._data._counts
        get = counts.get
        removed: dict[Row, int] = {}
        for old in olds:
            n = removed[old] = removed.get(old, 0) + 1
            if get(old, 0) < n:
                raise StorageError(f"modify of absent tuple {old} in {self.name}")
        added = Counter(news) if dels else {}
        for row, n in dels.items():
            if get(row, 0) - removed.get(row, 0) + added.get(row, 0) + ins.get(row, 0) < n:
                raise StorageError(f"delete of absent tuple {row} from {self.name}")
        n_ins, n_dels = sum(ins.values()), sum(dels.values())
        key_values = []
        for columns, getter, key_map in self._keys:
            kos, kns = (list(map(getter, olds)), list(map(getter, news))) if olds else ([], [])
            iks = list(map(getter, ins)) if ins else []
            # One row per key value: a new row may re-take a value an old
            # row frees (deletes free nothing for inserts); a value taken
            # twice, or onto one still held, violates the key.
            freed = set(kos) if kos != kns else ()
            taken = kns + iks if freed else iks
            clash = (key_map.keys() & taken).difference(freed) if taken else ()
            if clash or taken and len(set(taken)) < len(taken) + n_ins - len(ins):
                bad = clash or [k for k, n in Counter(taken).items() if n > 1]
                bad = bad or [k for k, n in zip(iks, ins.values()) if n > 1]
                raise StorageError(f"key {list(columns)} violated in {self.name} by {[*bad][0]}")
            key_values.append((columns, getter, key_map, freed, kos, kns, iks))

        # Validated: nothing below raises.
        for old, n in removed.items():
            n = counts[old] - n
            if n:
                counts[old] = n
            else:
                del counts[old]
        for row in news:
            counts[row] = get(row, 0) + 1
        for row, n in ins.items():
            counts[row] = get(row, 0) + n
        for row, n in dels.items():
            n = counts[row] - n
            if n:
                counts[row] = n
            else:
                del counts[row]
        self._total += n_ins - n_dels
        reads = writes = 0
        for columns, getter, key_map, freed, kos, kns, iks in key_values:
            for k in freed:
                del key_map[k]
            key_map.update(zip(kns, news))  # an unchanged value keeps its slot
            key_map.update(zip(iks, ins))
            dks = list(map(getter, dels)) if dels else []
            for k in dks:
                del key_map[k]
            if columns in self._indexes:  # the map is this key's index
                index_reads, index_writes = index_pages(kos, kns, iks, dks)
                reads += index_reads
                writes += index_writes
        for index in self._hash_indexes:
            index_reads, index_writes = index.update(olds, news, ins, dels)
            reads += index_reads
            writes += index_writes
        self.counter.charge_index_read(reads)
        self.counter.charge_index_write(writes)
        self.counter.charge_tuple_read(len(olds))
        self.counter.charge_tuple_write(len(olds) + n_ins + n_dels)
        return ins

    def __repr__(self) -> str:
        return f"<StoredRelation {self.name}: {self.row_count} rows, {len(self._indexes)} indexes>"
