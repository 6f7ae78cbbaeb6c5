"""Deltas: the paper's ΔR — insertions, deletions, and modifications.

The paper (Section 2.2) considers "differentials that include inserted
tuples, deleted tuples, and modified tuples". Modifications are kept as
(old, new) pairs rather than delete+insert both because SQL UPDATE is the
workload the paper prices (its >Emp / >Dept transactions) and because the
storage cost of a modification (read-modify-write, no index maintenance when
the key is unchanged) differs from a delete plus an insert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter, ne
from typing import Any, Iterable, Sequence

from repro.algebra.compile import tuple_getter
from repro.algebra.multiset import Multiset, Row
from repro.algebra.schema import COLUMN_PASS_MIN_ROWS

# The two sides of a modify pair.
_old, _new = itemgetter(0), itemgetter(1)


@dataclass
class Delta:
    """A change set for one relation (base or view)."""

    inserts: Multiset = field(default_factory=Multiset)
    deletes: Multiset = field(default_factory=Multiset)  # positive counts
    modifies: list[tuple[Row, Row]] = field(default_factory=list)  # (old, new)

    # What the maintainer has proven about this delta, on the compiled
    # backend only; a client never sets it, and no constructor takes it (it
    # is a class default, not a field). ``None``, or the columns its modify
    # pairs may change: storage checked the base delta it comes from and
    # returned every row as given, no pair is a no-op and no two pairs share
    # a value of a declared key (see ``ViewMaintainer._shape``). On a view
    # delta of plain copies it also tells storage the rows' types need no
    # check.
    _contract = None  # frozenset[str] | None

    def __post_init__(self) -> None:
        if not self.inserts.is_nonnegative() or not self.deletes.is_nonnegative():
            raise ValueError("insert/delete multisets must have non-negative counts")

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def insertion(rows: Iterable[Row]) -> "Delta":
        return Delta(inserts=Multiset(rows))

    @staticmethod
    def deletion(rows: Iterable[Row]) -> "Delta":
        return Delta(deletes=Multiset(rows))

    @staticmethod
    def modification(pairs: Iterable[tuple[Row, Row]]) -> "Delta":
        return Delta(modifies=[(old, new) for old, new in pairs])

    @staticmethod
    def from_net(net: Multiset) -> "Delta":
        """Split a signed multiset into inserts and deletes (no modifies)."""
        return Delta(inserts=net.positive_part(), deletes=net.negative_part())

    def inverted(self) -> "Delta":
        """The inverse delta: applying it after this one restores the
        original relation state (O(|delta|) logical undo — the engine
        layer's rollback primitive)."""
        return Delta(
            inserts=self.deletes.copy(),
            deletes=self.inserts.copy(),
            modifies=[(new, old) for old, new in self.modifies],
        )

    # -- views --------------------------------------------------------------------

    def net(self) -> Multiset:
        """The signed multiset this delta denotes."""
        out = self.inserts - self.deletes
        counts = out._counts
        get = counts.get
        for old, new in self.modifies:
            n = get(old, 0) - 1
            if n == 0:
                counts.pop(old, None)
            else:
                counts[old] = n
            n = get(new, 0) + 1
            if n == 0:
                counts.pop(new, None)
            else:
                counts[new] = n
        return out

    def all_inserted(self) -> Multiset:
        """Everything that enters the relation (inserts + new sides)."""
        out = self.inserts.copy()
        for _, new in self.modifies:
            out.add(new, 1)
        return out

    def all_deleted(self) -> Multiset:
        """Everything that leaves the relation (deletes + old sides)."""
        out = self.deletes.copy()
        for old, _ in self.modifies:
            out.add(old, 1)
        return out

    @property
    def is_empty(self) -> bool:
        return not self.inserts and not self.deletes and not self.modifies

    def size(self) -> int:
        """Number of changed tuples (a modification counts once)."""
        return self.inserts.total() + self.deletes.total() + len(self.modifies)

    def modified_columns(self, names: Sequence[str]) -> frozenset[str]:
        """Columns (``names`` in schema order) whose values actually differ
        in some modification pair: one pass per column over the pairs' old
        and new sides, unless the pairs are too few to repay the passes or
        some row's arity is not ``len(names)``."""
        modifies = self.modifies
        if len(modifies) >= COLUMN_PASS_MIN_ROWS:
            olds, news = list(map(_old, modifies)), list(map(_new, modifies))
            if set(map(len, olds)) | set(map(len, news)) == {len(names)}:
                return frozenset(
                    name
                    for i, name in enumerate(names)
                    if any(map(ne, map(itemgetter(i), olds), map(itemgetter(i), news)))
                )
        changed: set[str] = set()
        for old, new in modifies:
            for i, (a, b) in enumerate(zip(old, new)):
                if a != b:
                    changed.add(names[i])
        return frozenset(changed)

    def pair_modifications(self, key_positions: Iterable[int]) -> "Delta":
        """Re-pair deletes and inserts that share a key into modifications.

        Delta propagation through operators naturally produces (delete old,
        insert new) pairs for what is semantically a modification; pairing
        them back up lets the storage layer charge read-modify-write costs,
        as the paper does at nodes N3/N4.
        """
        if not self.inserts or not self.deletes:
            return self  # nothing to pair up
        positions = tuple(key_positions)
        if len(positions) == 1:
            # The grouping key is internal to this method, so single-column
            # keys can stay scalar (no per-row tuple).
            i = positions[0]
            key_of = lambda row: row[i]  # noqa: E731
        else:
            key_of = tuple_getter(positions)
        by_key_del: dict[Any, list[Row]] = {}
        for row, count in self.deletes.items():
            key = key_of(row)
            olds = by_key_del.get(key)
            if olds is None:
                olds = by_key_del[key] = []
            if count == 1:
                olds.append(row)
            else:
                olds.extend([row] * count)
        inserts = Multiset()
        modifies = list(self.modifies)
        for row, count in self.inserts.items():
            key = key_of(row)
            olds = by_key_del.get(key)
            for _ in range(count):
                if olds:
                    modifies.append((olds.pop(), row))
                else:
                    inserts.add(row, 1)
        deletes = Multiset()
        for rows in by_key_del.values():
            for row in rows:
                deletes.add(row, 1)
        return Delta(inserts=inserts, deletes=deletes, modifies=modifies)

    def __repr__(self) -> str:
        return (
            f"Delta(+{self.inserts.total()}, -{self.deletes.total()}, "
            f"~{len(self.modifies)})"
        )
