"""Logical relational operators.

The operator set follows the paper: base-relation scans, selection,
(generalized) projection with optional duplicate elimination (DISTINCT),
equijoin with optional residual predicate, grouping/aggregation, multiset
union and difference.
Operators are immutable, structurally hashable values; their output schemas
(including derived candidate keys) are computed and validated at
construction time.

Column naming convention: bare names throughout, with natural-join semantics
— a join equates and merges all shared column names, matching the paper's
``Join (DName)`` figures. :class:`Project` renames where disambiguation is
needed (e.g. self-joins, produced by the SQL frontend).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.algebra.predicates import Predicate, TruePred
from repro.algebra.scalar import Col, Scalar
from repro.algebra.schema import Column, Schema, SchemaError
from repro.algebra.types import DataType, TypeError_, hash_once


class AlgebraError(Exception):
    """Raised for ill-formed operator trees."""


class RelExpr:
    """Base class for relational expressions.

    Subclasses are frozen dataclasses; ``schema`` is derived in
    ``__post_init__`` and excluded from equality/hash.
    """

    schema: Schema

    @property
    def children(self) -> tuple["RelExpr", ...]:
        raise NotImplementedError

    def with_children(self, children: Sequence["RelExpr"]) -> "RelExpr":
        """Rebuild this operator over new children (same arity)."""
        raise NotImplementedError

    def label(self) -> str:
        """Short human-readable operator label (for DAG displays)."""
        raise NotImplementedError

    # -- traversal ---------------------------------------------------------------

    def walk(self) -> Iterator["RelExpr"]:
        """Pre-order traversal of the expression tree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def base_relations(self) -> frozenset[str]:
        """Names of all base relations appearing under this expression."""
        names = frozenset()
        for node in self.walk():
            if isinstance(node, Scan):
                names |= {node.name}
        return names

    def size(self) -> int:
        """Number of operator nodes in the tree."""
        return sum(1 for _ in self.walk())

    def _set_schema(self, schema: Schema) -> None:
        object.__setattr__(self, "schema", schema)


@hash_once
@dataclass(frozen=True, eq=True)
class Scan(RelExpr):
    """Leaf: a base relation with bare column names.

    Shared column names across relations (``DName`` in both ``Emp`` and
    ``Dept``) are how natural joins find their join columns, exactly as in
    the paper's figures. Self-joins or unrelated same-named columns are
    disambiguated by a renaming :class:`Project` (see the SQL frontend).
    """

    name: str
    base_schema: Schema
    schema: Schema = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self._set_schema(self.base_schema)

    @property
    def children(self) -> tuple[RelExpr, ...]:
        return ()

    def with_children(self, children: Sequence[RelExpr]) -> "Scan":
        if children:
            raise AlgebraError("Scan has no children")
        return self

    def label(self) -> str:
        return self.name

    def __str__(self) -> str:
        return self.name


@hash_once
@dataclass(frozen=True, eq=True)
class Select(RelExpr):
    """Selection: keep tuples satisfying a predicate."""

    input: RelExpr
    predicate: Predicate
    schema: Schema = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.predicate.validate(self.input.schema)
        self._set_schema(self.input.schema)

    @property
    def children(self) -> tuple[RelExpr, ...]:
        return (self.input,)

    def with_children(self, children: Sequence[RelExpr]) -> "Select":
        (child,) = children
        return Select(child, self.predicate)

    def label(self) -> str:
        return f"Select({self.predicate})"

    def __str__(self) -> str:
        return f"σ[{self.predicate}]({self.input})"


@hash_once
@dataclass(frozen=True, eq=True)
class Project(RelExpr):
    """Generalized projection: named scalar outputs, optional dedup.

    With ``dedup=False`` this is a multiset projection (SQL SELECT without
    DISTINCT); with ``dedup=True`` duplicates are eliminated.
    """

    input: RelExpr
    outputs: tuple[tuple[str, Scalar], ...]
    dedup: bool = False
    schema: Schema = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.outputs:
            raise AlgebraError("projection must retain at least one output")
        names = [name for name, _ in self.outputs]
        if len(names) != len(set(names)):
            raise AlgebraError(f"duplicate projection output names: {names}")
        in_schema = self.input.schema
        cols = tuple(
            Column(name, expr.output_type(in_schema)) for name, expr in self.outputs
        )
        self._set_schema(Schema(cols, self._derive_keys(in_schema)))

    def _derive_keys(self, in_schema: Schema) -> frozenset[frozenset[str]]:
        # A key survives projection when every key column is retained as a
        # plain column reference.
        retained: dict[str, str] = {}
        for name, expr in self.outputs:
            if isinstance(expr, Col):
                try:
                    retained.setdefault(in_schema.resolve(expr.name), name)
                except SchemaError:
                    continue
        keys = set()
        for key in in_schema.keys:
            if key <= set(retained):
                keys.add(frozenset(retained[a] for a in key))
        if self.dedup:
            # After dedup the full output is a key.
            keys.add(frozenset(name for name, _ in self.outputs))
        return frozenset(keys)

    @property
    def children(self) -> tuple[RelExpr, ...]:
        return (self.input,)

    def with_children(self, children: Sequence[RelExpr]) -> "Project":
        (child,) = children
        return Project(child, self.outputs, self.dedup)

    def label(self) -> str:
        cols = ", ".join(
            name if isinstance(expr, Col) and expr.name == name else f"{name}={expr}"
            for name, expr in self.outputs
        )
        tag = "ProjectDistinct" if self.dedup else "Project"
        return f"{tag}({cols})"

    def __str__(self) -> str:
        return f"π[{', '.join(n for n, _ in self.outputs)}]({self.input})"


@hash_once
@dataclass(frozen=True, eq=True)
class Join(RelExpr):
    """Natural join: equality on all shared column names, which are merged.

    This matches the paper's presentation (``Join (DName)``): the join
    columns appear once in the output. An optional ``residual`` predicate
    expresses additional non-equality conditions. Joins with no shared
    columns are rejected unless ``allow_cartesian`` is set.

    The output schema is order-canonical (columns sorted by name) so that
    commuted and re-associated joins land in the same equivalence class of
    the expression DAG.
    """

    left: RelExpr
    right: RelExpr
    residual: Predicate = field(default_factory=TruePred)
    allow_cartesian: bool = False
    schema: Schema = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        left_schema, right_schema = self.left.schema, self.right.schema
        shared = sorted(set(left_schema.names) & set(right_schema.names))
        if not shared and not self.allow_cartesian:
            raise AlgebraError(
                f"natural join of {left_schema} and {right_schema} shares no columns; "
                "pass allow_cartesian=True for an explicit cartesian product"
            )
        for name in shared:
            lt, rt = left_schema.dtype_of(name), right_schema.dtype_of(name)
            if lt is not rt:
                raise AlgebraError(f"join column {name!r} has mismatched types {lt} vs {rt}")
        by_name = {c.name: c for c in left_schema.columns}
        by_name.update({c.name: c for c in right_schema.columns})
        cols = tuple(by_name[name] for name in sorted(by_name))
        merged = Schema(cols, frozenset(self._derive_keys(shared)))
        self.residual.validate(merged)
        self._set_schema(merged)

    @property
    def join_columns(self) -> tuple[str, ...]:
        """The shared (merged) column names, sorted."""
        return tuple(sorted(set(self.left.schema.names) & set(self.right.schema.names)))

    def _derive_keys(self, shared: Sequence[str]) -> set[frozenset[str]]:
        left_schema, right_schema = self.left.schema, self.right.schema
        keys: set[frozenset[str]] = set()
        # If the shared columns contain a right key, every left tuple matches
        # at most one right tuple, so left keys remain keys (and vice versa).
        if right_schema.has_key(shared):
            keys |= set(left_schema.keys)
        if left_schema.has_key(shared):
            keys |= set(right_schema.keys)
        return keys

    @property
    def children(self) -> tuple[RelExpr, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[RelExpr]) -> "Join":
        left, right = children
        return Join(left, right, self.residual, self.allow_cartesian)

    def label(self) -> str:
        conds = ", ".join(self.join_columns) or "×"
        extra = f" AND {self.residual}" if self.residual.conjuncts() else ""
        return f"Join({conds}{extra})"

    def __str__(self) -> str:
        return f"({self.left} ⋈[{', '.join(self.join_columns)}] {self.right})"


_AGG_FUNCS = ("sum", "count", "min", "max", "avg")


@hash_once
@dataclass(frozen=True, eq=True)
class AggSpec:
    """One aggregate in a GROUP BY: ``func(arg) AS out``.

    ``arg`` is ``None`` only for ``count`` (COUNT(*)).
    """

    func: str
    arg: Scalar | None
    out: str

    def __post_init__(self) -> None:
        if self.func not in _AGG_FUNCS:
            raise AlgebraError(f"unknown aggregate function {self.func!r}")
        if self.arg is None and self.func != "count":
            raise AlgebraError(f"{self.func.upper()} requires an argument")

    def output_type(self, in_schema: Schema) -> DataType:
        if self.func == "count":
            return DataType.INT
        assert self.arg is not None
        arg_type = self.arg.output_type(in_schema)
        if self.func == "avg":
            if not arg_type.is_numeric:
                raise TypeError_(f"AVG over non-numeric type {arg_type.value}")
            return DataType.FLOAT
        if self.func == "sum" and not arg_type.is_numeric:
            raise TypeError_(f"SUM over non-numeric type {arg_type.value}")
        return arg_type

    def label(self) -> str:
        arg = "*" if self.arg is None else str(self.arg)
        return f"{self.func.upper()}({arg})"

    def __str__(self) -> str:
        return f"{self.label()} AS {self.out}"


@hash_once
@dataclass(frozen=True, eq=True)
class GroupAggregate(RelExpr):
    """Grouping with aggregation. Output: group columns then aggregates.

    Groups with no input tuples do not appear (SQL GROUP BY semantics).
    """

    input: RelExpr
    group_by: tuple[str, ...]
    aggregates: tuple[AggSpec, ...]
    schema: Schema = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        in_schema = self.input.schema
        resolved = tuple(sorted(in_schema.resolve(g) for g in self.group_by))
        if len(set(resolved)) != len(resolved):
            raise AlgebraError(f"duplicate group-by columns: {self.group_by}")
        object.__setattr__(self, "group_by", resolved)
        object.__setattr__(
            self, "aggregates", tuple(sorted(self.aggregates, key=lambda a: a.out))
        )
        if not self.aggregates and not resolved:
            raise AlgebraError("GroupAggregate requires group columns or aggregates")
        out_names = list(resolved) + [a.out for a in self.aggregates]
        if len(out_names) != len(set(out_names)):
            raise AlgebraError(f"duplicate output names in aggregation: {out_names}")
        cols = [Column(g, in_schema.dtype_of(g)) for g in resolved]
        for agg in self.aggregates:
            if agg.arg is not None:
                # Validate the argument types eagerly.
                agg.arg.output_type(in_schema)
            cols.append(Column(agg.out, agg.output_type(in_schema)))
        keys = {frozenset(resolved)} if resolved else {frozenset(out_names)}
        self._set_schema(Schema(tuple(cols), frozenset(keys)))

    @property
    def children(self) -> tuple[RelExpr, ...]:
        return (self.input,)

    def with_children(self, children: Sequence[RelExpr]) -> "GroupAggregate":
        (child,) = children
        return GroupAggregate(child, self.group_by, self.aggregates)

    def label(self) -> str:
        aggs = ", ".join(a.label() for a in self.aggregates)
        return f"Aggregate({aggs} BY {', '.join(self.group_by)})"

    def __str__(self) -> str:
        aggs = ", ".join(str(a) for a in self.aggregates)
        return f"γ[{', '.join(self.group_by)}; {aggs}]({self.input})"


def _require_union_compatible(left: Schema, right: Schema, what: str) -> None:
    if left.names != right.names or tuple(c.dtype for c in left.columns) != tuple(
        c.dtype for c in right.columns
    ):
        raise AlgebraError(f"{what} operands have incompatible schemas: {left} vs {right}")


@hash_once
@dataclass(frozen=True, eq=True)
class Union(RelExpr):
    """Multiset (bag) union — SQL UNION ALL."""

    left: RelExpr
    right: RelExpr
    schema: Schema = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        _require_union_compatible(self.left.schema, self.right.schema, "union")
        self._set_schema(Schema(self.left.schema.columns, frozenset()))

    @property
    def children(self) -> tuple[RelExpr, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[RelExpr]) -> "Union":
        left, right = children
        return Union(left, right)

    def label(self) -> str:
        return "UnionAll"

    def __str__(self) -> str:
        return f"({self.left} ∪ {self.right})"


@hash_once
@dataclass(frozen=True, eq=True)
class Difference(RelExpr):
    """Multiset difference with clamping (SQL EXCEPT ALL)."""

    left: RelExpr
    right: RelExpr
    schema: Schema = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        _require_union_compatible(self.left.schema, self.right.schema, "difference")
        self._set_schema(Schema(self.left.schema.columns, self.left.schema.keys))

    @property
    def children(self) -> tuple[RelExpr, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[RelExpr]) -> "Difference":
        left, right = children
        return Difference(left, right)

    def label(self) -> str:
        return "ExceptAll"

    def __str__(self) -> str:
        return f"({self.left} − {self.right})"


def natural_join(left: RelExpr, right: RelExpr) -> Join:
    """Convenience constructor for a natural join."""
    return Join(left, right)


def project_columns(input_: RelExpr, names: Sequence[str], dedup: bool = False) -> Project:
    """Project plain columns, optionally renaming via ``"out=in"`` strings."""
    outputs = []
    for name in names:
        if "=" in name:
            out, src = (part.strip() for part in name.split("=", 1))
        else:
            out, src = name.rsplit(".", 1)[-1], name
        outputs.append((out, Col(input_.schema.resolve(src))))
    return Project(input_, tuple(outputs), dedup)
