"""Multisets of tuples with signed counts.

SQL tables and views have multiset (bag) semantics, and incremental view
maintenance is naturally expressed over *signed* multisets: a delta is a
multiset where positive counts are insertions and negative counts are
deletions (the counting algorithm). This class is the common currency of the
evaluator (:mod:`repro.algebra.evaluate`) and the IVM runtime
(:mod:`repro.ivm`).
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Dict, Iterable, Iterator, Mapping, Tuple

Row = Tuple[Any, ...]


class Multiset:
    """A multiset of tuples, stored as tuple → signed count.

    Zero-count entries are never stored; the empty multiset is falsy.
    """

    __slots__ = ("_counts",)

    def __init__(self, items: Iterable[Row] | Mapping[Row, int] | None = None) -> None:
        self._counts: Dict[Row, int] = {}
        if items is None:
            return
        if isinstance(items, Mapping):
            for row, count in items.items():
                self.add(row, count)
        else:
            for row in items:
                self.add(row, 1)

    # -- mutation ---------------------------------------------------------------

    def add(self, row: Row, count: int = 1) -> None:
        """Adjust the count of ``row`` by ``count`` (which may be negative)."""
        if count == 0:
            return
        new = self._counts.get(row, 0) + count
        if new == 0:
            self._counts.pop(row, None)
        else:
            self._counts[row] = new

    def update(self, other: "Multiset", scale: int = 1) -> None:
        """Merge ``other`` into this multiset, scaling counts by ``scale``."""
        counts = self._counts
        get = counts.get
        for row, count in other._counts.items():
            new = get(row, 0) + count * scale
            if new == 0:
                counts.pop(row, None)
            else:
                counts[row] = new

    # -- queries -----------------------------------------------------------------

    def count(self, row: Row) -> int:
        return self._counts.get(row, 0)

    def items(self) -> Iterator[tuple[Row, int]]:
        return iter(self._counts.items())

    def rows(self) -> Iterator[Row]:
        """Iterate distinct rows (ignoring multiplicity)."""
        return iter(self._counts)

    def expand(self) -> Iterator[Row]:
        """Iterate rows with multiplicity; requires all counts non-negative."""
        for row, count in self._counts.items():
            if count < 0:
                raise ValueError(f"cannot expand multiset with negative count for {row}")
            yield from repeat(row, count)

    @property
    def distinct_size(self) -> int:
        return len(self._counts)

    def total(self) -> int:
        """Sum of counts (may be negative for deltas)."""
        return sum(self._counts.values())

    def total_abs(self) -> int:
        """Sum of absolute counts — the 'size' of a delta."""
        return sum(abs(c) for c in self._counts.values())

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self._counts.values())

    def __len__(self) -> int:
        return len(self._counts)

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __contains__(self, row: Row) -> bool:
        return row in self._counts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:  # pragma: no cover - multisets are mutable
        raise TypeError("Multiset is unhashable")

    def __repr__(self) -> str:
        inner = ", ".join(f"{row}×{count}" for row, count in sorted(self._counts.items(), key=repr))
        return f"Multiset{{{inner}}}"

    # -- algebra -----------------------------------------------------------------

    def copy(self) -> "Multiset":
        out = Multiset()
        out._counts = dict(self._counts)
        return out

    def __add__(self, other: "Multiset") -> "Multiset":
        out = self.copy()
        out.update(other)
        return out

    def __sub__(self, other: "Multiset") -> "Multiset":
        out = self.copy()
        out.update(other, scale=-1)
        return out

    def negate(self) -> "Multiset":
        out = Multiset()
        out._counts = {row: -count for row, count in self._counts.items()}
        return out

    def monus(self, other: "Multiset") -> "Multiset":
        """Multiset difference with clamping at zero (SQL EXCEPT ALL)."""
        out = Multiset()
        for row, count in self._counts.items():
            remaining = count - other.count(row)
            if remaining > 0:
                out.add(row, remaining)
        return out

    def positive_part(self) -> "Multiset":
        out = Multiset()
        out._counts = {row: count for row, count in self._counts.items() if count > 0}
        return out

    def negative_part(self) -> "Multiset":
        """The deletions of a delta, returned with positive counts."""
        out = Multiset()
        out._counts = {row: -count for row, count in self._counts.items() if count < 0}
        return out
