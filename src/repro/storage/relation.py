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
answers whether a row is present, the row count, scans and reads. Each
index is a :class:`~repro.storage.index.HashIndex` whose layout follows
from the declared keys: an index on exactly a key's columns is that key's
map (the key check maintains it), and any other index on a keyed relation
holds buckets of first-key values that resolve through the first map. A
keyless relation keeps a multiset of row counts, and its buckets hold
rows. Both go through one apply body.

A bucket lists its rows in scan order, by one slot rule: when every
modify pair of a delta keeps its first key and every index key, each row
keeps its slot in the map (``stored[k] = new``) and no bucket changes;
otherwise every pair leaves the rows and its buckets and then joins the
end of both, in delta order. A keyless relation's pairs always move.

:meth:`StoredRelation.check_delta` checks a delta whole (row types,
absent tuples, candidate keys) before :meth:`StoredRelation.apply_checked`
updates the rows, each key map and each index once and charges sums of
distinct keys, so a rejected delta changes and charges nothing. The
maintainer checks each base delta before it propagates anything and
applies it after: storage is the one validator of client input. Applying
builds no inverse: an undo journal keeps the applied delta and inverts it
only if it rolls back (:mod:`repro.storage.undo`).

Declared candidate keys are enforced incrementally on every mutation, which
is what licenses the optimizer's key-based reasoning (delta completeness,
aggregate push-down). Each key's map holds the row itself, so the same
structure answers point lookups by key (:meth:`StoredRelation.candidates`,
pinned by :func:`equality_pins`): ``UPDATE``/``DELETE … WHERE`` and snapshot
``SELECT`` make the one probe choice through it.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import repeat
from operator import is_, itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.algebra.compile import tuple_getter
from repro.algebra.multiset import Multiset, Row
from repro.algebra.predicates import Compare, Predicate
from repro.algebra.scalar import Col, Const
from repro.algebra.schema import Schema
from repro.ivm.delta import Delta
from repro.storage.index import HashIndex, index_pages
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


def _key_getter(positions: tuple[int, ...]) -> Callable[[Row], Any]:
    """A key map's key of a row: the bare value of a one-column key, else
    the tuple of the key's values."""
    return itemgetter(positions[0]) if len(positions) == 1 else tuple_getter(positions)


# What StoredRelation.check_delta proved of a delta: its type-checked rows
# (modifies' old and new sides, inserts' and deletes' counts), each key's
# values of them and of what the modifies free, the rows a keyless
# relation's modifies remove, and whether every row was typed as given.
CheckedDelta = namedtuple("CheckedDelta", "olds news ins dels keys frees removed exact")


class StorageError(Exception):
    """Raised for storage-level violations (missing index, key violation)."""


class StoredRelation:
    """A stored multiset relation with hash indexes and I/O accounting."""

    def __init__(self, name: str, schema: Schema, counter: IOCounter | None = None) -> None:
        self.name = name
        self.schema = schema
        self.counter = counter if counter is not None else IOCounter()
        self._indexes: dict[tuple[str, ...], HashIndex] = {}
        # The indexes that keep buckets of their own (not a key's map).
        self._bucketed: list[HashIndex] = []
        # One incremental uniqueness map per declared candidate key
        # (key value -> the one row holding it), smallest key first, with
        # the key's columns in value order and a positional getter per key
        # (mapped over every row of an applied delta). A one-column key's
        # value is the bare column value: a map of scalars allocates no
        # tuple per row, and a dict holding only scalars is one the cyclic
        # collector never tracks — the hash indexes' buckets hold these
        # values too.
        self._keys: list[tuple[tuple[str, ...], Callable[[Row], Any], dict[Any, Row]]] = [
            (columns, _key_getter(tuple(schema.index_of(a) for a in columns)), {})
            for columns in sorted(
                (tuple(sorted(key)) for key in schema.keys), key=lambda c: (len(c), c)
            )
        ]
        # Where the rows live: a keyed relation's first key map holds each
        # row once; only a keyless relation counts its rows (and keeps
        # their running sum, so row_count is O(1)).
        self._stored: dict[Any, Row] | None = self._keys[0][2] if self._keys else None
        self._data: Multiset | None = None if self._keys else Multiset()
        self._total = 0
        # Optional durable catalog (DurableStore duck type) that logs index
        # DDL. Set by the Database once the relation is registered. Row
        # changes reach the log only through an engine commit.
        self._durable = None

    # -- indexes -----------------------------------------------------------------

    def create_index(self, columns: Iterable[str]) -> HashIndex:
        """An index on ``columns``, answered through the key's map when they
        are exactly a declared candidate key's (in sorted order), else
        through buckets of its own."""
        cols = tuple(self.schema.resolve(c) for c in columns)
        if cols in self._indexes:
            return self._indexes[cols]
        rows = next((m for key_cols, _, m in self._keys if key_cols == cols), self._stored)
        index = HashIndex(self.schema, cols, self.counter, rows)
        if index.shape == "buckets":
            index.rebuild(self.items())
        if index.shape != "keyed":
            self._bucketed.append(index)
        self._indexes[cols] = index
        if self._durable is not None:
            self._durable.on_index(self.name, cols)
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
        paper's maintenance accounting). Each row is type-checked once; a
        mistyped row raises before anything is loaded."""
        inserts = Counter(self.schema.validate_rows(list(rows)))
        with self.counter.suspended():
            self.apply_checked(self._check([], [], inserts, {}, True))

    def load_multiset(self, data: Multiset) -> None:
        """Insert ``data`` through :meth:`apply_delta`, uncharged."""
        with self.counter.suspended():
            self.apply_delta(Delta(inserts=data))

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
                key = tuple(pins[c] for c in columns)
                row = key_map.get(key[0] if len(key) == 1 else key)
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

    def lookup_many(
        self, columns: Iterable[str], keys: Iterable[tuple[Any, ...]]
    ) -> Multiset:
        """Batched indexed lookup (:meth:`HashIndex.probe_many`): one index
        page per key plus one page per matching tuple.

        Raises :class:`StorageError` when no index on ``columns`` exists —
        the executor decides explicitly when to fall back to a scan.
        """
        cols = tuple(self.schema.resolve(c) for c in columns)
        index = self._indexes.get(cols)
        if index is None:
            raise StorageError(f"no index on {cols} for relation {self.name}")
        return index.probe_many(keys)

    @property
    def row_count(self) -> int:
        return self._total if self._stored is None else len(self._stored)

    # -- maintenance ------------------------------------------------------------------

    def apply_delta(self, delta: Delta) -> None:
        """Apply a delta with the paper's charging policy: check it whole
        (:meth:`check_delta`), then apply what the check returned
        (:meth:`apply_checked`). A delta with a mistyped row, an absent
        tuple or a key violation raises before anything is charged or
        changed. No inverse is built here: an undo journal inverts the
        applied delta only when it rolls back."""
        self.apply_checked(self.check_delta(delta))

    def check_delta(self, delta: Delta) -> CheckedDelta:
        """Check ``delta`` against the relation as it is now, charging and
        changing nothing: row types (an int in a FLOAT column is widened),
        absent tuples and candidate keys. Raises :class:`StorageError` or
        :class:`~repro.algebra.types.TypeError_` on the first violation.

        Row types are not checked on a view delta the maintainer marks as
        plain copies of checked rows (``Delta._contract``)."""
        modifies, inserts, deletes = delta.modifies, delta.inserts._counts, delta.deletes._counts
        given = [list(map(itemgetter(0), modifies)), list(map(itemgetter(1), modifies)),
                 list(inserts), list(deletes)]
        typed = given if delta._contract is not None else [*map(self.schema.validate_rows, given)]
        olds, news, ins, dels = typed
        ins, dels = dict(zip(ins, inserts.values())), dict(zip(dels, deletes.values()))
        return self._check(olds, news, ins, dels, all(map(is_, typed, given)))

    def _check(self, olds: list[Row], news: list[Row], ins: dict[Row, int],
               dels: dict[Row, int], exact: bool) -> CheckedDelta:
        """The state checks over type-checked rows. Modifies go before
        inserts and inserts before deletes, each checked against the state
        the earlier ones leave."""
        stored, data = self._stored, self._data
        n_ins, n_dels = sum(ins.values()), sum(dels.values())
        key_values = []
        for columns, getter, key_map in self._keys:
            kos, kns = (list(map(getter, olds)), list(map(getter, news))) if olds else ([], [])
            iks = list(map(getter, ins)) if ins else []
            dks = list(map(getter, dels)) if dels else []
            key_values.append((columns, key_map, kos, kns, iks, dks))

        removed: dict[Row, int] = {}
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
        return CheckedDelta(olds, news, ins, dels, key_values, frees, removed, exact)

    def apply_checked(self, checked: CheckedDelta) -> None:
        """Apply what :meth:`check_delta` returned, charging the §3.6
        totals; nothing here raises. Nothing else may change the relation
        between the check and this apply. A keyed relation's rows are its
        first key map, so updating the key maps writes them; a keyless
        relation updates its counts."""
        olds, news, ins, dels, key_values, frees, removed, _ = checked
        stored = self._stored
        n_ins, n_dels = sum(ins.values()), sum(dels.values())
        if stored is None:
            counts = self._data._counts
            get = counts.get
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
        # When every pair keeps its first key and every index key, each row
        # keeps its slot in the map holding the rows and no bucket changes;
        # else every pair leaves the map and its buckets and joins the end
        # of both, so a bucket still lists its rows in scan order.
        in_place = (
            stored is not None
            and not frees[0]
            and all(index.keeps(olds, news) for index in self._bucketed)
        )
        for (columns, key_map, kos, kns, iks, dks), freed in zip(key_values, frees):
            # The map holding the rows drops every old key unless the pairs
            # stay in place; the others drop only the values freed, so an
            # unchanged value keeps its slot.
            for k in kos if key_map is stored and not in_place else freed:
                del key_map[k]
            key_map.update(zip(kns, news))
            key_map.update(zip(iks, ins))
            for k in dks:
                del key_map[k]
            if columns in self._indexes:  # the map is this key's index
                index_reads, index_writes = index_pages(kos, kns, iks, dks)
                reads += index_reads
                writes += index_writes
        # What the buckets hold: first-key values, or a keyless relation's rows.
        refs = key_values[0][2:] if stored is not None else (olds, news, ins, dels)
        for index in self._bucketed:
            index_reads, index_writes = index.update(olds, news, ins, dels, refs, in_place)
            reads += index_reads
            writes += index_writes
        self.counter.charge_index_read(reads)
        self.counter.charge_index_write(writes)
        self.counter.charge_tuple_read(len(olds))
        self.counter.charge_tuple_write(len(olds) + n_ins + n_dels)

    def __repr__(self) -> str:
        return f"<StoredRelation {self.name}: {self.row_count} rows, {len(self._indexes)} indexes>"
