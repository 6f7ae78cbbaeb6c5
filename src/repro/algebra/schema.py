"""Schemas: ordered, named, typed columns plus key metadata.

Keys matter for this paper: the Yan–Larson style aggregate push-down rule and
the delta-completeness analysis (the reason query Q3d in Section 3.6 costs no
I/O) are licensed by declared keys, e.g. ``DName`` being a key of ``Dept``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import is_, itemgetter
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.algebra.types import DataType, TypeError_, check_value, hash_once


#: Below this many rows :meth:`Schema.validate_rows` checks row by row: a
#: column pass costs a few set builds up front (≈ 5 µs on one row, against
#: ≈ 0.8 µs for the row's own check) and repays them from about a dozen rows.
COLUMN_PASS_MIN_ROWS = 16


class SchemaError(Exception):
    """Raised for malformed schemas or column-resolution failures."""


@hash_once
@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    dtype: DataType

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")

    def __str__(self) -> str:
        return f"{self.name}:{self.dtype.value}"


@hash_once
@dataclass(frozen=True)
class Schema:
    """An ordered collection of columns with optional candidate keys.

    Column names must be unique. Qualified names (``Emp.Salary``) are resolved
    by suffix match so that translated SQL can refer to columns either way.
    """

    columns: tuple[Column, ...]
    keys: frozenset[frozenset[str]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(names) != len(set(names)):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate column names: {dupes}")
        for key in self.keys:
            missing = set(key) - set(names)
            if missing:
                raise SchemaError(f"key {sorted(key)} references unknown columns {sorted(missing)}")
        # Exact representation types, used by the validate_tuple fast path.
        object.__setattr__(
            self, "_pytypes", tuple(c.dtype.python_type for c in self.columns)
        )

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def of(*cols: tuple[str, DataType] | Column, keys: Iterable[Iterable[str]] = ()) -> "Schema":
        """Build a schema from ``(name, dtype)`` pairs or Column objects."""
        built = tuple(c if isinstance(c, Column) else Column(c[0], c[1]) for c in cols)
        return Schema(built, frozenset(frozenset(k) for k in keys))

    # -- lookup ----------------------------------------------------------------

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __contains__(self, name: str) -> bool:
        try:
            self.resolve(name)
        except SchemaError:
            return False
        return True

    def index_of(self, name: str) -> int:
        """Position of ``name`` (qualified or bare) in the schema."""
        resolved = self.resolve(name)
        for i, col in enumerate(self.columns):
            if col.name == resolved:
                return i
        raise SchemaError(f"unreachable: {resolved}")  # pragma: no cover

    def resolve(self, name: str) -> str:
        """Resolve a possibly-qualified column reference to the schema name.

        Exact matches win; otherwise a unique suffix match after the final
        ``.`` is accepted (``Salary`` matches ``Emp.Salary``) and vice versa
        (``Emp.Salary`` matches a column stored as ``Salary`` only when no
        exact match exists and exactly one column has that suffix).
        """
        names = self.names
        if name in names:
            return name
        bare = name.rsplit(".", 1)[-1]
        candidates = [n for n in names if n == bare or n.rsplit(".", 1)[-1] == bare]
        if len(candidates) == 1:
            return candidates[0]
        if not candidates:
            raise SchemaError(f"no column {name!r} in schema {list(names)}")
        raise SchemaError(f"ambiguous column {name!r}: matches {candidates}")

    def dtype_of(self, name: str) -> DataType:
        return self.columns[self.index_of(name)].dtype

    # -- key reasoning ---------------------------------------------------------

    @cached_property
    def pairing_key(self) -> tuple[int, ...]:
        """Positions of the smallest declared candidate key's columns (ties
        broken by their names), in name order; ``()`` when keyless. A
        delta's deletes and inserts that agree on it pair up as modifies."""
        if not self.keys:
            return ()
        key = min(self.keys, key=lambda k: (len(k), sorted(k)))
        return tuple(self.index_of(a) for a in sorted(key))

    def has_key(self, attrs: Iterable[str]) -> bool:
        """Whether some declared candidate key is contained in ``attrs``."""
        resolved = {self.resolve(a) for a in attrs}
        return any(key <= resolved for key in self.keys)

    # -- derivation -------------------------------------------------------------

    def project(self, names: Sequence[str]) -> "Schema":
        """Schema restricted (and reordered) to ``names``; keys kept if intact."""
        resolved = [self.resolve(n) for n in names]
        cols = tuple(self.columns[self.index_of(n)] for n in resolved)
        kept = frozenset(k for k in self.keys if k <= set(resolved))
        return Schema(cols, kept)

    def rename(self, mapping: Mapping[str, str]) -> "Schema":
        """Rename columns; keys are rewritten through the mapping."""
        resolved = {self.resolve(old): new for old, new in mapping.items()}
        cols = tuple(Column(resolved.get(c.name, c.name), c.dtype) for c in self.columns)
        keys = frozenset(frozenset(resolved.get(a, a) for a in key) for key in self.keys)
        return Schema(cols, keys)

    def concat(self, other: "Schema", extra_keys: Iterable[Iterable[str]] = ()) -> "Schema":
        """Concatenate two schemas (join output); caller supplies result keys."""
        keys = frozenset(frozenset(k) for k in extra_keys)
        return Schema(self.columns + other.columns, keys)

    # -- tuples ------------------------------------------------------------------

    def validate_tuple(self, values: Sequence[Any]) -> tuple[Any, ...]:
        """Type-check a tuple against the schema, returning a normalized tuple.

        Fast path: values whose representation types already match exactly
        (the overwhelmingly common case on maintenance hot paths) skip the
        per-value coercion machinery; anything else — wrong arity, a bool
        where an int is declared, an int needing FLOAT widening — falls
        through to the full check with its original error behavior.
        """
        if tuple(map(type, values)) == self._pytypes:  # type: ignore[attr-defined]
            return tuple(values)
        if len(values) != len(self.columns):
            raise TypeError_(
                f"tuple arity {len(values)} does not match schema arity {len(self.columns)}"
            )
        return tuple(check_value(v, c.dtype) for v, c in zip(values, self.columns))

    def validate_rows(self, rows: Sequence[Sequence[Any]]) -> list[tuple[Any, ...]]:
        """``[self.validate_tuple(r) for r in rows]``, checked a column at a
        time when every row is a plain tuple of exactly the declared types:
        one C-level pass over the rows' types and lengths, then one per
        column. Anything else — a list or tuple subclass, a bool where an
        int is declared, an int needing FLOAT widening, a wrong arity —
        and any list too short to repay the column passes, goes row by row,
        so the same first bad row raises the same error.
        When no row needs normalizing (nothing widened or converted), the
        result is ``rows`` itself, so a caller can tell by identity.
        """
        if (
            len(rows) >= COLUMN_PASS_MIN_ROWS
            and set(map(type, rows)) == {tuple}
            and set(map(len, rows)) == {len(self.columns)}
        ):
            # itemgetter, not zip(*rows): zip holds one live iterator per row,
            # enough to set off the cyclic collector on a large delta.
            for i, pytype in enumerate(self._pytypes):  # type: ignore[attr-defined]
                if set(map(type, map(itemgetter(i), rows))) != {pytype}:
                    break
            else:
                return rows
        out = list(map(self.validate_tuple, rows))
        return rows if all(map(is_, out, rows)) else out

    def as_dict(self, values: Sequence[Any]) -> dict[str, Any]:
        """View a tuple as a column-name → value mapping."""
        return dict(zip(self.names, values))

    def __str__(self) -> str:
        cols = ", ".join(str(c) for c in self.columns)
        return f"({cols})"
