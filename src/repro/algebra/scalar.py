"""Scalar expressions: column references, constants, arithmetic.

Scalar expressions appear in projection lists, aggregate arguments
(``SUM(S.Quantity * T.Price)`` in the paper's Figure 5), and inside
predicates. They are immutable and hash structurally so they can serve as
parts of memo keys in the expression DAG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.algebra.schema import Schema
from repro.algebra.types import DataType, TypeError_, hash_once, infer_type, unify_numeric


class Scalar:
    """Base class for scalar expressions."""

    def eval(self, row: Mapping[str, Any]) -> Any:
        raise NotImplementedError

    def columns(self) -> frozenset[str]:
        """All column names referenced by this expression."""
        raise NotImplementedError

    def output_type(self, schema: Schema) -> DataType:
        raise NotImplementedError

    def rename(self, mapping: Mapping[str, str]) -> "Scalar":
        """Rewrite column references through a renaming."""
        raise NotImplementedError


@hash_once
@dataclass(frozen=True)
class Col(Scalar):
    """Reference to a column by (possibly qualified) name."""

    name: str

    def eval(self, row: Mapping[str, Any]) -> Any:
        if self.name in row:
            return row[self.name]
        bare = self.name.rsplit(".", 1)[-1]
        matches = [k for k in row if k == bare or k.rsplit(".", 1)[-1] == bare]
        if len(matches) == 1:
            return row[matches[0]]
        raise KeyError(f"column {self.name!r} not found (or ambiguous) in row {sorted(row)}")

    def columns(self) -> frozenset[str]:
        return frozenset({self.name})

    def output_type(self, schema: Schema) -> DataType:
        return schema.dtype_of(self.name)

    def rename(self, mapping: Mapping[str, str]) -> "Col":
        return Col(mapping.get(self.name, self.name))

    def __str__(self) -> str:
        return self.name


@hash_once
@dataclass(frozen=True)
class Const(Scalar):
    """A literal constant."""

    value: Any

    def eval(self, row: Mapping[str, Any]) -> Any:
        return self.value

    def columns(self) -> frozenset[str]:
        return frozenset()

    def output_type(self, schema: Schema) -> DataType:
        return infer_type(self.value)

    def rename(self, mapping: Mapping[str, str]) -> "Const":
        return self

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


_ARITH_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


@hash_once
@dataclass(frozen=True)
class Arith(Scalar):
    """Binary arithmetic over numeric scalars."""

    op: str
    left: Scalar
    right: Scalar

    def __post_init__(self) -> None:
        if self.op not in _ARITH_OPS:
            raise TypeError_(f"unknown arithmetic operator {self.op!r}")

    def eval(self, row: Mapping[str, Any]) -> Any:
        return _ARITH_OPS[self.op](self.left.eval(row), self.right.eval(row))

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()

    def output_type(self, schema: Schema) -> DataType:
        if self.op == "/":
            # SQL-style: division always yields a float in this engine.
            unify_numeric(self.left.output_type(schema), self.right.output_type(schema))
            return DataType.FLOAT
        return unify_numeric(self.left.output_type(schema), self.right.output_type(schema))

    def rename(self, mapping: Mapping[str, str]) -> "Arith":
        return Arith(self.op, self.left.rename(mapping), self.right.rename(mapping))

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


def col(name: str) -> Col:
    """Convenience constructor used throughout examples and tests."""
    return Col(name)


def lit(value: Any) -> Const:
    """Convenience constructor for constants."""
    return Const(value)
