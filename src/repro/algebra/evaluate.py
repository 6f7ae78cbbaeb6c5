"""Batch (from-scratch) evaluation of relational expressions over multisets.

This interpreter defines the *meaning* of the algebra. The IVM runtime
(:mod:`repro.ivm`) must agree with it: for any update stream, incrementally
maintained state equals re-evaluation from scratch. Property tests enforce
exactly that.

Two execution backends share these semantics:

* ``interpreted`` — the reference implementation in this module: an
  expression-tree walk with a ``dict(zip(names, row))`` per row;
* ``compiled`` (the default) — :mod:`repro.algebra.compile` turns each
  expression shape into specialized closures reading tuple positions
  directly, with fused Select→Project→Join pipelines, cached per session.

``evaluate(..., backend=...)`` selects per call;
:func:`repro.algebra.compile.set_default_backend` (or the
``REPRO_EXEC_BACKEND`` environment variable) selects session-wide. Both
backends produce bit-identical multisets and identical I/O charges — a
hypothesis property (``tests/property/test_compile_equivalence.py``)
enforces it.
"""

from __future__ import annotations

from typing import Any, Mapping, Protocol, Sequence

from repro.algebra.multiset import Multiset, Row
from repro.algebra.operators import (
    AggSpec,
    Difference,
    GroupAggregate,
    Join,
    Project,
    RelExpr,
    Scan,
    Select,
    Union,
)


class RelationSource(Protocol):
    """Anything that can produce the current contents of a base relation."""

    def multiset(self, name: str) -> Multiset: ...


class MappingSource:
    """Adapt a plain ``{name: Multiset}`` mapping to :class:`RelationSource`."""

    def __init__(self, relations: Mapping[str, Multiset]) -> None:
        self._relations = dict(relations)

    def multiset(self, name: str) -> Multiset:
        try:
            return self._relations[name]
        except KeyError:
            raise KeyError(f"unknown base relation {name!r}") from None


def evaluate(
    expr: RelExpr,
    source: RelationSource | Mapping[str, Multiset],
    backend: str | None = None,
) -> Multiset:
    """Evaluate ``expr`` against base-relation contents, returning a multiset.

    ``backend`` is ``"compiled"`` or ``"interpreted"``; ``None`` uses the
    session default (:func:`repro.algebra.compile.default_backend`).
    """
    from repro.algebra import compile as _compile

    if isinstance(source, Mapping):
        source = MappingSource(source)
    if backend is None:
        backend = _compile.default_backend()
    if backend == "interpreted":
        return _eval(expr, source)
    if backend == "compiled":
        return _compile.compiled_evaluate(expr, source)
    raise ValueError(
        f"unknown execution backend {backend!r}; expected one of {_compile.BACKENDS}"
    )


def _eval(expr: RelExpr, source: RelationSource) -> Multiset:
    if isinstance(expr, Scan):
        return source.multiset(expr.name)
    if isinstance(expr, Select):
        return eval_select(expr, _eval(expr.input, source))
    if isinstance(expr, Project):
        return eval_project(expr, _eval(expr.input, source))
    if isinstance(expr, Join):
        return eval_join(expr, _eval(expr.left, source), _eval(expr.right, source))
    if isinstance(expr, GroupAggregate):
        return eval_group_aggregate(expr, _eval(expr.input, source))
    if isinstance(expr, Union):
        return _eval(expr.left, source) + _eval(expr.right, source)
    if isinstance(expr, Difference):
        return _eval(expr.left, source).monus(_eval(expr.right, source))
    raise TypeError(f"unknown operator {type(expr).__name__}")


# -- per-operator semantics, reusable by the IVM runtime ------------------------


def eval_select(expr: Select, input_: Multiset) -> Multiset:
    if not expr.predicate.conjuncts():
        # Trivially-true predicate (same guard eval_join applies to empty
        # residuals): skip the per-row dict entirely.
        return input_.copy()
    names = expr.input.schema.names
    out = Multiset()
    for row, count in input_.items():
        if expr.predicate.eval(dict(zip(names, row))):
            out.add(row, count)
    return out


def eval_project(expr: Project, input_: Multiset) -> Multiset:
    names = expr.input.schema.names
    out = Multiset()
    for row, count in input_.items():
        mapping = dict(zip(names, row))
        projected = tuple(scalar.eval(mapping) for _, scalar in expr.outputs)
        out.add(projected, count)
    if expr.dedup:
        return eval_dedup(out)
    return out


def eval_dedup(input_: Multiset) -> Multiset:
    if not input_.is_nonnegative():
        raise ValueError("cannot deduplicate a multiset with negative counts")
    out = Multiset()
    for row, count in input_.items():
        if count > 0:
            out.add(row, 1)
    return out


def eval_join(expr: Join, left: Multiset, right: Multiset) -> Multiset:
    """Hash natural join; counts multiply; residual predicate filters output.

    Output tuples follow the join's canonical (name-sorted) column order,
    with shared columns merged.
    """
    left_schema, right_schema = expr.left.schema, expr.right.schema
    shared = expr.join_columns
    left_idx = [left_schema.index_of(c) for c in shared]
    right_idx = [right_schema.index_of(c) for c in shared]
    # Build on the smaller side.
    build_left = left.distinct_size <= right.distinct_size
    build, probe = (left, right) if build_left else (right, left)
    build_idx, probe_idx = (left_idx, right_idx) if build_left else (right_idx, left_idx)

    table: dict[tuple[Any, ...], list[tuple[Row, int]]] = {}
    for row, count in build.items():
        key = tuple(row[i] for i in build_idx)
        table.setdefault(key, []).append((row, count))

    # Precompute, for each output column, where to read it from: the left
    # row (shared columns come from the left copy) or the right row.
    out_src: list[tuple[bool, int]] = []
    for name in expr.schema.names:
        if name in left_schema:
            out_src.append((True, left_schema.index_of(name)))
        else:
            out_src.append((False, right_schema.index_of(name)))

    names = expr.schema.names
    has_residual = expr.residual.conjuncts() != ()
    out = Multiset()
    for prow, pcount in probe.items():
        key = tuple(prow[i] for i in probe_idx)
        for brow, bcount in table.get(key, ()):
            lrow, rrow = (brow, prow) if build_left else (prow, brow)
            merged = tuple(
                lrow[idx] if from_left else rrow[idx] for from_left, idx in out_src
            )
            if has_residual and not expr.residual.eval(dict(zip(names, merged))):
                continue
            out.add(merged, pcount * bcount)
    return out


def eval_join_modifies(
    expr: Join, pairs: Sequence[tuple[Row, Row]], other: Multiset, from_left: bool
) -> list[tuple[Row, Row]]:
    """Reference modify-pair join: each (old, new) pair of one input (the
    left when ``from_left``), keeping the join columns, joined with every
    matching row of ``other``, once per copy — ``(old ⋈ o, new ⋈ o)``."""
    own, theirs = (expr.left, expr.right) if from_left else (expr.right, expr.left)
    shared = expr.join_columns
    own_idx = [own.schema.index_of(c) for c in shared]
    other_idx = [theirs.schema.index_of(c) for c in shared]
    table: dict[tuple[Any, ...], list[tuple[Row, int]]] = {}
    for row, count in other.items():
        table.setdefault(tuple(row[i] for i in other_idx), []).append((row, count))

    def merge(mine: Row, o: Row) -> Row:
        values = dict(zip(theirs.schema.names, o))
        values.update(zip(own.schema.names, mine))
        return tuple(values[name] for name in expr.schema.names)

    out: list[tuple[Row, Row]] = []
    for old, new in pairs:
        for o, count in table.get(tuple(old[i] for i in own_idx), ()):
            out.extend([(merge(old, o), merge(new, o))] * count)
    return out


def compute_aggregate(spec: AggSpec, rows: list[tuple[Row, int]], names: tuple[str, ...]) -> Any:
    """Compute one aggregate over a group given ``(row, count)`` pairs.

    Counts must be positive. ``rows`` is the group's content.
    """
    if spec.func == "count" and spec.arg is None:
        return sum(count for _, count in rows)
    assert spec.arg is not None
    values = [
        (spec.arg.eval(dict(zip(names, row))), count) for row, count in rows
    ]
    if spec.func == "count":
        return sum(count for _, count in values)
    if spec.func == "sum":
        return sum(value * count for value, count in values)
    if spec.func == "avg":
        total = sum(value * count for value, count in values)
        n = sum(count for _, count in values)
        return total / n
    if spec.func == "min":
        return min(value for value, _ in values)
    if spec.func == "max":
        return max(value for value, _ in values)
    raise AssertionError(f"unreachable: {spec.func}")  # pragma: no cover


def eval_group_aggregate(expr: GroupAggregate, input_: Multiset) -> Multiset:
    if not input_.is_nonnegative():
        raise ValueError("cannot aggregate a multiset with negative counts")
    in_schema = expr.input.schema
    names = in_schema.names
    group_idx = [in_schema.index_of(g) for g in expr.group_by]
    groups: dict[tuple[Any, ...], list[tuple[Row, int]]] = {}
    for row, count in input_.items():
        if count <= 0:
            continue
        key = tuple(row[i] for i in group_idx)
        groups.setdefault(key, []).append((row, count))
    out = Multiset()
    if not expr.group_by and not groups:
        # Grand aggregate over the empty input: SQL yields a single row with
        # COUNT = 0 and NULL sums; we follow GROUP BY semantics instead and
        # produce no row, which keeps deltas symmetric. (The SQL frontend
        # only emits grand aggregates with GROUP BY-free COUNT in tests.)
        return out
    for key, rows in groups.items():
        aggs = tuple(compute_aggregate(spec, rows, names) for spec in expr.aggregates)
        out.add(key + aggs, 1)
    return out
