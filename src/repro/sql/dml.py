"""SQL DML: INSERT / DELETE / UPDATE statements become deltas.

The paper's transactions are abstract update specs; this module gives them
SQL syntax. A DML statement evaluated against the stored database yields a
per-relation :class:`~repro.ivm.delta.Delta`, which the maintenance
machinery (e.g. the shell's :class:`~repro.ivm.maintainer.ViewMaintainer`)
then propagates to every materialized view.

``UPDATE``/``DELETE … WHERE`` find their rows by probe when the WHERE
clause pins a declared key or an indexed column set with ``column =
literal`` conjuncts, and by an in-place scan otherwise; either way the
full predicate decides each row. Deriving a delta is uncharged
bookkeeping: the I/O counter prices maintenance, not the statement's
row selection.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.algebra.multiset import Row
from repro.algebra.predicates import Compare, Predicate, TruePred
from repro.algebra.scalar import Col, Const, Scalar
from repro.ivm.delta import Delta
from repro.sql import ast
from repro.sql.parser import parse
from repro.sql.translate import SQLTranslationError, _AggregateCollector, _Scope
from repro.storage.database import Database
from repro.storage.relation import StoredRelation
from repro.workload.transactions import Transaction

DML_STATEMENTS = (ast.InsertStmt, ast.DeleteStmt, ast.UpdateStmt)


def is_dml(statement: object) -> bool:
    """Whether a parsed statement is INSERT, DELETE, or UPDATE."""
    return isinstance(statement, DML_STATEMENTS)


def _single_table_scope(db: Database, table: str) -> _Scope:
    if table not in db:
        raise SQLTranslationError(f"unknown relation {table!r}")
    scope = _Scope()
    scope.tables[table] = db.relation(table).schema
    return scope


def _translate_condition(
    condition: ast.Condition | None, scope: _Scope
) -> Predicate:
    if condition is None:
        return TruePred()
    from repro.sql.translate import _translate_condition as translate

    return translate(condition, scope, aggregates=None)


def _translate_scalar(expr: ast.ScalarExpr, scope: _Scope) -> Scalar:
    collector = _AggregateCollector(scope)
    scalar = collector.translate(expr)
    if collector.specs:
        raise SQLTranslationError("aggregates are not allowed in DML expressions")
    return scalar


def _pins(predicate: Predicate, relation: StoredRelation) -> dict[str, Any]:
    """The predicate's top-level ``column = literal`` conjuncts (either
    operand order) as ``{schema column: value}``. A column pinned twice
    keeps one pin; the full predicate rejects what the other excludes."""
    pins: dict[str, Any] = {}
    for part in predicate.conjuncts():
        if not (isinstance(part, Compare) and part.op == "="):
            continue
        left, right = part.left, part.right
        if isinstance(left, Const):
            left, right = right, left
        if isinstance(left, Col) and isinstance(right, Const):
            pins.setdefault(relation.schema.resolve(left.name), right.value)
    return pins


def _matching_rows(
    relation: StoredRelation, predicate: Predicate
) -> Iterator[tuple[Row, dict[str, Any]]]:
    """Stored rows (with multiplicity) that satisfy ``predicate``, each with
    its column mapping: probed through a key or index the WHERE clause
    pins, else scanned in place."""
    rows = relation.candidates(_pins(predicate, relation))
    if rows is None:
        rows = relation.rows()
    names = relation.schema.names
    for row in rows:
        mapping = dict(zip(names, row))
        if predicate.eval(mapping):
            yield row, mapping


def dml_to_delta(statement, db: Database) -> tuple[str, Delta]:
    """Evaluate one parsed DML statement against the current database state,
    returning ``(relation name, delta)``. Nothing is applied."""
    if isinstance(statement, ast.InsertStmt):
        relation = db.relation(statement.table)
        rows = [relation.schema.validate_tuple(row) for row in statement.rows]
        return statement.table, Delta.insertion(rows)

    if isinstance(statement, ast.DeleteStmt):
        relation = db.relation(statement.table)
        scope = _single_table_scope(db, statement.table)
        predicate = _translate_condition(statement.where, scope)
        predicate.validate(relation.schema)
        doomed = [row for row, _ in _matching_rows(relation, predicate)]
        return statement.table, Delta.deletion(doomed)

    if isinstance(statement, ast.UpdateStmt):
        relation = db.relation(statement.table)
        schema = relation.schema
        scope = _single_table_scope(db, statement.table)
        predicate = _translate_condition(statement.where, scope)
        predicate.validate(schema)
        assignments: list[tuple[int, Scalar]] = []
        for assignment in statement.assignments:
            index = schema.index_of(assignment.column)
            scalar = _translate_scalar(assignment.value, scope)
            scalar.output_type(schema)  # type-check eagerly
            assignments.append((index, scalar))
        pairs = []
        for row, mapping in _matching_rows(relation, predicate):
            new = list(row)
            for index, scalar in assignments:
                new[index] = scalar.eval(mapping)
            new_row = schema.validate_tuple(tuple(new))
            if new_row != row:
                pairs.append((row, new_row))
        return statement.table, Delta.modification(pairs)

    raise SQLTranslationError(f"not a DML statement: {type(statement).__name__}")


def execute_dml_text(
    text: str, db: Database, txn_name: str | None = None
) -> Transaction:
    """Parse + evaluate one DML statement; returns a Transaction (unapplied)."""
    statement = parse(text)
    if not is_dml(statement):
        raise SQLTranslationError("expected an INSERT, DELETE, or UPDATE statement")
    relation, delta = dml_to_delta(statement, db)
    name = txn_name if txn_name is not None else type(statement).__name__
    return Transaction(name, {relation: delta})
