"""Boolean predicates over tuples.

Predicates drive selections (``SumSal > Budget``), join conditions
(``Dept.DName = Emp.DName``) and HAVING clauses. Like scalars they are
immutable and structurally hashable; conjunctions are flattened and their
conjuncts ordered canonically so that equal predicates compare equal
regardless of how they were assembled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.algebra.scalar import Col, Scalar
from repro.algebra.schema import Schema
from repro.algebra.types import TypeError_, comparable, hash_once


class Predicate:
    """Base class for boolean predicates."""

    def eval(self, row: Mapping[str, Any]) -> bool:
        raise NotImplementedError

    def columns(self) -> frozenset[str]:
        raise NotImplementedError

    def validate(self, schema: Schema) -> None:
        """Raise :class:`TypeError_` if the predicate is ill-typed for schema."""
        raise NotImplementedError

    def rename(self, mapping: Mapping[str, str]) -> "Predicate":
        raise NotImplementedError

    def conjuncts(self) -> tuple["Predicate", ...]:
        """Flatten top-level ANDs into a tuple of conjuncts."""
        return (self,)


@hash_once
@dataclass(frozen=True)
class TruePred(Predicate):
    """The always-true predicate (empty WHERE clause)."""

    def eval(self, row: Mapping[str, Any]) -> bool:
        return True

    def columns(self) -> frozenset[str]:
        return frozenset()

    def validate(self, schema: Schema) -> None:
        return None

    def rename(self, mapping: Mapping[str, str]) -> "TruePred":
        return self

    def conjuncts(self) -> tuple[Predicate, ...]:
        return ()

    def __str__(self) -> str:
        return "TRUE"


_CMP_OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@hash_once
@dataclass(frozen=True)
class Compare(Predicate):
    """A binary comparison between two scalar expressions."""

    op: str
    left: Scalar
    right: Scalar

    def __post_init__(self) -> None:
        if self.op not in _CMP_OPS:
            raise TypeError_(f"unknown comparison operator {self.op!r}")

    def eval(self, row: Mapping[str, Any]) -> bool:
        return _CMP_OPS[self.op](self.left.eval(row), self.right.eval(row))

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()

    def validate(self, schema: Schema) -> None:
        lt = self.left.output_type(schema)
        rt = self.right.output_type(schema)
        if not comparable(lt, rt):
            raise TypeError_(f"cannot compare {lt.value} {self.op} {rt.value} in {self}")

    def rename(self, mapping: Mapping[str, str]) -> "Compare":
        return Compare(self.op, self.left.rename(mapping), self.right.rename(mapping))

    def is_equijoin_condition(self) -> tuple[str, str] | None:
        """Return ``(left_col, right_col)`` when this is ``Col = Col``."""
        if self.op == "=" and isinstance(self.left, Col) and isinstance(self.right, Col):
            return (self.left.name, self.right.name)
        return None

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@hash_once
@dataclass(frozen=True)
class Not(Predicate):
    """Logical negation."""

    inner: Predicate

    def eval(self, row: Mapping[str, Any]) -> bool:
        return not self.inner.eval(row)

    def columns(self) -> frozenset[str]:
        return self.inner.columns()

    def validate(self, schema: Schema) -> None:
        self.inner.validate(schema)

    def rename(self, mapping: Mapping[str, str]) -> "Not":
        return Not(self.inner.rename(mapping))

    def __str__(self) -> str:
        return f"NOT ({self.inner})"


@hash_once
@dataclass(frozen=True)
class And(Predicate):
    """Conjunction, stored as a canonically-ordered flat tuple of conjuncts."""

    parts: tuple[Predicate, ...]

    def eval(self, row: Mapping[str, Any]) -> bool:
        return all(p.eval(row) for p in self.parts)

    def columns(self) -> frozenset[str]:
        cols: frozenset[str] = frozenset()
        for p in self.parts:
            cols |= p.columns()
        return cols

    def validate(self, schema: Schema) -> None:
        for p in self.parts:
            p.validate(schema)

    def rename(self, mapping: Mapping[str, str]) -> Predicate:
        return conjunction(p.rename(mapping) for p in self.parts)

    def conjuncts(self) -> tuple[Predicate, ...]:
        return self.parts

    def __str__(self) -> str:
        return " AND ".join(f"({p})" for p in self.parts)


@hash_once
@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of two predicates."""

    left: Predicate
    right: Predicate

    def eval(self, row: Mapping[str, Any]) -> bool:
        return self.left.eval(row) or self.right.eval(row)

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()

    def validate(self, schema: Schema) -> None:
        self.left.validate(schema)
        self.right.validate(schema)

    def rename(self, mapping: Mapping[str, str]) -> "Or":
        return Or(self.left.rename(mapping), self.right.rename(mapping))

    def __str__(self) -> str:
        return f"({self.left}) OR ({self.right})"


def conjunction(preds: Iterable[Predicate]) -> Predicate:
    """Build a canonical conjunction: flattened, deduplicated, sorted.

    Returns :class:`TruePred` for the empty conjunction and the single
    conjunct itself for singletons, so algebraically equal predicates built in
    different orders hash identically.
    """
    flat: list[Predicate] = []
    for p in preds:
        flat.extend(p.conjuncts())
    unique = sorted(set(flat), key=str)
    if not unique:
        return TruePred()
    if len(unique) == 1:
        return unique[0]
    return And(tuple(unique))
