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

A relation with a declared candidate key stores each row once, in its
first key's map (key value -> the row; smallest key first): that map
answers whether a row is present, the row count, scans and reads. A
keyless relation keeps a multiset of row counts. Both go through one
apply body.

A delta is validated whole (row types, absent tuples, candidate keys)
before any of it is applied or charged, so a rejected delta changes
nothing and charges nothing. The rows, each key map and each index are
then updated once per delta, and the charges are sums of distinct keys.
Applying builds no inverse: an undo journal keeps the applied delta and
inverts it only if it rolls back (:mod:`repro.storage.undo`).
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
from itertools import repeat
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
        self._indexes: dict[tuple[str, ...], HashIndex | KeyIndex] = {}
        # The indexes that keep buckets of their own (not a key's map).
        self._hash_indexes: list[HashIndex] = []
        # One incremental uniqueness map per declared candidate key
        # (key value -> the one row holding it), smallest key first, with
        # the key's columns in value order and a compiled positional getter
        # per key (mapped over every row of an applied delta).
        self._keys: list[tuple[tuple[str, ...], Callable[[Row], tuple], dict[tuple, Row]]] = [
            (columns, tuple_getter(tuple(schema.index_of(a) for a in columns)), {})
            for columns in sorted(
                (tuple(sorted(key)) for key in schema.keys), key=lambda c: (len(c), c)
            )
        ]
        # Where the rows live: a keyed relation's first key map holds each
        # row once; only a keyless relation counts its rows (and keeps
        # their running sum, so row_count is O(1)).
        self._stored: dict[tuple, Row] | None = self._keys[0][2] if self._keys else None
        self._data: Multiset | None = None if self._keys else Multiset()
        self._total = 0
        # Optional durable catalog (DurableStore duck type) that logs index
        # DDL. Set by the Database once the relation is registered. Row
        # changes reach the log only through an engine commit.
        self._durable = None

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
            index.rebuild(self.items())
            self._hash_indexes.append(index)
        self._indexes[cols] = index
        if self._durable is not None:
            self._durable.on_index(self.name, cols)
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
        paper's maintenance accounting). Each row is type-checked once; a
        mistyped row raises before anything is loaded."""
        self._load(Counter(map(self.schema.validate_tuple, rows)))

    def load_multiset(self, data: Multiset) -> None:
        """Insert ``data`` through the same all-or-nothing apply as
        :meth:`apply_delta`, uncharged."""
        _, _, inserts, _ = self._validated(Delta(inserts=data))
        self._load(inserts)

    def _load(self, inserts: dict[Row, int]) -> None:
        with self.counter.suspended():
            self._apply([], [], inserts, {})

    def contents(self) -> Multiset:
        """Uncharged copy of the contents (verification / snapshots)."""
        if self._stored is None:
            return self._data.copy()
        out = Multiset()
        out._counts = dict.fromkeys(self._stored.values(), 1)
        return out

    def rows(self) -> Iterator[Row]:
        """Uncharged iteration over the stored rows, with multiplicity, in
        place (no copy): the relation must not change while it runs."""
        if self._stored is None:
            return self._data.expand()
        return iter(self._stored.values())

    def items(self) -> Iterator[tuple[Row, int]]:
        """Uncharged iteration over the (row, count) pairs in place (no
        copy): the relation must not change while it runs."""
        if self._stored is None:
            return self._data.items()
        return zip(self._stored.values(), repeat(1))

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
        self.counter.charge_tuple_read(self.row_count)
        return self.contents()

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
        return self._total if self._stored is None else len(self._stored)

    # -- maintenance ------------------------------------------------------------------

    def apply_delta(self, delta: Delta) -> None:
        """Apply a delta with the paper's charging policy. A delta with a
        mistyped row, an absent tuple or a key violation raises before
        anything is charged or changed. No inverse is built here: an undo
        journal inverts the applied delta only when it rolls back."""
        self._apply(*self._validated(delta))

    def _validated(
        self, delta: Delta
    ) -> tuple[list[Row], list[Row], dict[Row, int], dict[Row, int]]:
        """The delta's type-checked rows: its modifies' old and new sides,
        and its inserts' and deletes' counts."""
        validate = self.schema.validate_tuple
        olds = [validate(old) for old, _ in delta.modifies] if delta.modifies else []
        news = [validate(new) for _, new in delta.modifies] if delta.modifies else []
        ins = {validate(r): n for r, n in delta.inserts.items()} if delta.inserts else {}
        dels = {validate(r): n for r, n in delta.deletes.items()} if delta.deletes else {}
        return olds, news, ins, dels

    def _apply(
        self, olds: list[Row], news: list[Row], ins: dict[Row, int], dels: dict[Row, int]
    ) -> None:
        """The one apply core, over type-checked rows: check the whole delta,
        then update the rows, each key map and each index in turn and charge
        what the indexes report. Modifies go before inserts and inserts
        before deletes, each checked against the state the earlier ones
        leave. A keyed relation's rows are its first key map, so updating
        the key maps writes them; a keyless relation updates its counts."""
        stored, data = self._stored, self._data
        n_ins, n_dels = sum(ins.values()), sum(dels.values())
        key_values = []
        for columns, getter, key_map in self._keys:
            kos, kns = (list(map(getter, olds)), list(map(getter, news))) if olds else ([], [])
            iks = list(map(getter, ins)) if ins else []
            dks = list(map(getter, dels)) if dels else []
            key_values.append((columns, key_map, kos, kns, iks, dks))

        if stored is not None:  # probe the rows by key, compare by value
            _, _, kos, kns, iks, dks = key_values[0]
            get = stored.get
            if olds and (list(map(get, kos)) != olds or len(set(kos)) < len(kos)):
                seen: set[tuple] = set()
                for old, k in zip(olds, kos):
                    if get(k) != old or k in seen:
                        raise StorageError(f"modify of absent tuple {old} in {self.name}")
                    seen.add(k)
            if dels:
                if olds or ins:  # the rows the modifies and inserts leave
                    after = dict.fromkeys(kos)
                    after.update(zip(kns, news))
                    after.update(zip(iks, ins))
                    found = [after[k] if k in after else get(k) for k in dks]
                else:
                    found = list(map(get, dks))
                if n_dels > len(dels) or found != list(dels):
                    for (row, n), held in zip(dels.items(), found):
                        if n > 1 or held != row:
                            raise StorageError(f"delete of absent tuple {row} from {self.name}")
        else:
            get = data._counts.get
            removed: dict[Row, int] = {}
            for old in olds:
                n = removed[old] = removed.get(old, 0) + 1
                if get(old, 0) < n:
                    raise StorageError(f"modify of absent tuple {old} in {self.name}")
            added = Counter(news) if dels else {}
            for row, n in dels.items():
                if get(row, 0) - removed.get(row, 0) + added.get(row, 0) + ins.get(row, 0) < n:
                    raise StorageError(f"delete of absent tuple {row} from {self.name}")

        frees = []
        for columns, key_map, kos, kns, iks, _ in key_values:
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
            frees.append(freed)

        # Validated: nothing below raises.
        if stored is None:
            counts = data._counts
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
        for (columns, key_map, kos, kns, iks, dks), freed in zip(key_values, frees):
            # The map holding the rows moves each modified row to the end,
            # as a scan and an index bucket order it; in the others an
            # unchanged value keeps its slot.
            for k in kos if key_map is stored else freed:
                del key_map[k]
            key_map.update(zip(kns, news))
            key_map.update(zip(iks, ins))
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

    def __repr__(self) -> str:
        return f"<StoredRelation {self.name}: {self.row_count} rows, {len(self._indexes)} indexes>"
