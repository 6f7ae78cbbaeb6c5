"""Scalar type system for the relational algebra.

The paper's examples use integers and strings (department names, salaries,
budgets); we support a small, closed set of scalar types with explicit
coercion rules so that expressions can be type-checked when views are
defined rather than when the first tuple flows through them.
"""

from __future__ import annotations

import enum
from typing import Any, TypeVar

_T = TypeVar("_T", bound=type)


def hash_once(cls: _T) -> _T:
    """Class decorator for a frozen dataclass: keep its structural hash.

    The dataclass ``__hash__`` rehashes the whole field tree on every call
    — an expression's children, predicates, schemas and their column types
    — and plan-cache keys are hashed on every commit. The wrapped hash
    computes that value once per instance and keeps it; equality is
    untouched. Apply it on top of ``@dataclass(frozen=True)``.
    """
    structural = cls.__hash__

    def __hash__(self) -> int:
        state = self.__dict__
        value = state.get("_structural_hash")
        if value is None:
            value = state["_structural_hash"] = structural(self)
        return value

    cls.__hash__ = __hash__
    return cls


class DataType(enum.Enum):
    """Scalar column types supported by the engine."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    BOOL = "bool"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DataType.{self.name}"

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INT, DataType.FLOAT)

    @property
    def python_type(self) -> type:
        """The exact Python representation type for values of this type.

        Exact means ``type(v) is dtype.python_type`` — a ``bool`` is *not* a
        valid INT value even though ``bool`` subclasses ``int``.
        """
        return _PYTHON_TYPES[self]


_PYTHON_TYPES = {
    DataType.INT: int,
    DataType.FLOAT: float,
    DataType.STRING: str,
    DataType.BOOL: bool,
}


class TypeError_(Exception):
    """Raised when an expression or tuple fails type checking.

    Named with a trailing underscore to avoid shadowing the builtin while
    still reading naturally at raise sites.
    """


def infer_type(value: Any) -> DataType:
    """Infer the :class:`DataType` of a Python value.

    ``bool`` is checked before ``int`` because ``bool`` is a subclass of
    ``int`` in Python.
    """
    if isinstance(value, bool):
        return DataType.BOOL
    if isinstance(value, int):
        return DataType.INT
    if isinstance(value, float):
        return DataType.FLOAT
    if isinstance(value, str):
        return DataType.STRING
    raise TypeError_(f"unsupported scalar value: {value!r} ({type(value).__name__})")


def check_value(value: Any, expected: DataType) -> Any:
    """Validate (and mildly coerce) ``value`` against ``expected``.

    An ``int`` is accepted where a ``FLOAT`` is expected (widening), mirroring
    SQL numeric promotion. Everything else must match exactly.
    """
    actual = infer_type(value)
    if actual is expected:
        return value
    if expected is DataType.FLOAT and actual is DataType.INT:
        return float(value)
    raise TypeError_(f"value {value!r} has type {actual.value}, expected {expected.value}")


def unify_numeric(left: DataType, right: DataType) -> DataType:
    """Result type of an arithmetic operation over two numeric types."""
    if not (left.is_numeric and right.is_numeric):
        raise TypeError_(f"arithmetic requires numeric operands, got {left.value} and {right.value}")
    if DataType.FLOAT in (left, right):
        return DataType.FLOAT
    return DataType.INT


def comparable(left: DataType, right: DataType) -> bool:
    """Whether two types may be compared with ``=``, ``<`` etc."""
    if left is right:
        return True
    return left.is_numeric and right.is_numeric
