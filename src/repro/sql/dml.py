"""SQL statements: the one path both SQL front ends share.

The shell and the socket server hand every statement to this module:
:func:`dml_transaction` derives INSERT / DELETE / UPDATE statements as
one unapplied :class:`~repro.workload.transactions.Transaction`,
:func:`translate_query` turns a SELECT into an expression over the
database's base relations, and :func:`error_tier` says whether what a
statement raised is ``rejected``, ``invalid`` or ``internal``.

``UPDATE``/``DELETE … WHERE`` find their rows by probe when the WHERE
clause pins a declared key or an indexed column set with ``column =
literal`` conjuncts, and by an in-place scan otherwise; either way the
full predicate decides each row. Deriving a delta is uncharged
bookkeeping: the I/O counter prices maintenance, not the statement's
row selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.algebra.multiset import Multiset, Row
from repro.algebra.operators import AlgebraError, RelExpr
from repro.algebra.predicates import Predicate, TruePred
from repro.algebra.scalar import Scalar
from repro.algebra.schema import SchemaError
from repro.algebra.types import TypeError_
from repro.engine.engine import EngineError
from repro.ivm.compose import compose_relations
from repro.ivm.delta import Delta
from repro.ivm.maintainer import MaintenanceError
from repro.sql import ast
from repro.sql.lexer import SQLSyntaxError
from repro.sql.translate import SQLTranslationError, _AggregateCollector, _Scope
from repro.sql.translate import _translate_condition, _translate_select
from repro.storage.database import Database
from repro.storage.relation import StorageError, StoredRelation, equality_pins
from repro.workload.transactions import Transaction

DML_STATEMENTS = (ast.InsertStmt, ast.DeleteStmt, ast.UpdateStmt)

#: Raised while a statement is translated or its delta derived, these are
#: the statement's own type and column mistakes.
_STATEMENT_ERRORS = (SchemaError, TypeError_, AlgebraError)


def is_dml(statement: object) -> bool:
    """Whether a parsed statement is INSERT, DELETE, or UPDATE."""
    return isinstance(statement, DML_STATEMENTS)


def _matching_rows(
    relation: StoredRelation, predicate: Predicate, pending: Multiset | None
) -> Iterator[tuple[Row, dict[str, Any]]]:
    """Rows (with multiplicity) that satisfy ``predicate``, each with its
    column mapping: the stored rows — probed through a key or index the
    WHERE clause pins, else scanned in place — overlaid with ``pending``,
    the signed net delta of the transaction's earlier statements."""
    pins = equality_pins(predicate, relation.schema)
    found = relation.candidates({column: value for column, (value, _) in pins.items()})
    rows: Iterable[Row] = relation.rows() if found is None else found[1]
    if pending:
        rows = _overlay(rows, pending)
    names = relation.schema.names
    for row in rows:
        mapping = dict(zip(names, row))
        if predicate.eval(mapping):
            yield row, mapping


def _overlay(stored: Iterable[Row], pending: Multiset) -> Iterator[Row]:
    """``stored`` as the earlier statements left it: a row they deleted is
    skipped as often as they deleted it, and the rows they inserted
    follow (the caller's predicate filters those too)."""
    deleted = pending.negative_part()
    for row in stored:
        if row in deleted:
            deleted.add(row, -1)
        else:
            yield row
    yield from pending.positive_part().expand()


def dml_to_delta(
    statement, db: Database, pending: Mapping[str, Multiset] | None = None
) -> tuple[str, Delta]:
    """Evaluate one parsed DML statement against the current database state,
    overlaid with ``pending`` (the net delta per relation of the same
    transaction's earlier statements), returning ``(relation name,
    delta)``. Nothing is applied."""
    if not is_dml(statement):
        raise SQLTranslationError(
            "expected an INSERT, DELETE, or UPDATE statement, "
            f"not {type(statement).__name__}"
        )
    relation = db.relation(statement.table)
    schema = relation.schema
    if isinstance(statement, ast.InsertStmt):
        rows = [schema.validate_tuple(row) for row in statement.rows]
        return statement.table, Delta.insertion(rows)

    scope = _Scope({statement.table: schema})
    predicate: Predicate = TruePred()
    if statement.where is not None:
        predicate = _translate_condition(statement.where, scope, aggregates=None)
    predicate.validate(schema)
    overlay = pending.get(statement.table) if pending else None
    matches = _matching_rows(relation, predicate, overlay)
    if isinstance(statement, ast.DeleteStmt):
        return statement.table, Delta.deletion(row for row, _ in matches)

    assignments: list[tuple[int, Scalar]] = []
    for assignment in statement.assignments:
        index = schema.index_of(assignment.column)
        collector = _AggregateCollector(scope)
        scalar = collector.translate(assignment.value)
        if collector.specs:
            raise SQLTranslationError("aggregates are not allowed in DML expressions")
        scalar.output_type(schema)  # type-check eagerly
        assignments.append((index, scalar))
    pairs = []
    for row, mapping in matches:
        new = list(row)
        for index, scalar in assignments:
            new[index] = scalar.eval(mapping)
        new_row = schema.validate_tuple(tuple(new))
        if new_row != row:
            pairs.append((row, new_row))
    return statement.table, Delta.modification(pairs)


def dml_transaction(
    statements: Sequence,
    db: Database,
    name: str,
    pending: Mapping[str, Multiset] | None = None,
) -> Transaction:
    """Derive one transaction named ``name`` from parsed DML statements, in
    order. Nothing is applied.

    Statement 1 sees the stored rows overlaid with ``pending``, the net
    delta per relation of work that will commit ahead of this transaction
    (the group committer passes the riders before this one in its batch);
    ``pending`` itself is not changed. Statement *k* of several also sees
    the net delta of statements 1..*k*−1, and the steps compose through
    :func:`~repro.ivm.compose.compose_relations`. Derivation reads the
    current contents, so it holds the storage latch. A type or column
    mistake found here is the statement's fault and is raised as
    :class:`SQLTranslationError`.
    """
    with db.latch:
        try:
            if len(statements) == 1:
                relation, delta = dml_to_delta(statements[0], db, pending)
                return Transaction(name, {relation: delta})
            steps: list[dict[str, Delta]] = []
            overlay = {r: rows.copy() for r, rows in (pending or {}).items()}
            for statement in statements:
                relation, delta = dml_to_delta(statement, db, overlay)
                steps.append({relation: delta})
                overlay.setdefault(relation, Multiset()).update(delta.net())
            return Transaction(name, compose_relations(db, steps))
        except _STATEMENT_ERRORS as exc:
            raise SQLTranslationError(str(exc)) from exc


@dataclass(frozen=True)
class StatementRider:
    """Parsed DML statements queued for the group committer as they are.

    The commit thread derives the transaction (:meth:`derive`) when it
    drains the batch, against the rows the riders ahead of it leave, so
    two writers racing on one row both commit instead of the later one
    carrying a stale modify. ``type_name`` names the derived transaction.
    """

    type_name: str
    statements: tuple

    def derive(
        self, db: Database, pending: Mapping[str, Multiset] | None = None
    ) -> Transaction:
        return dml_transaction(self.statements, db, self.type_name, pending)


def translate_query(statement: ast.SelectStmt, db: Database) -> RelExpr:
    """A parsed SELECT as an expression over ``db``'s base relations."""
    schemas = {t.name: db.relation(t.name).schema for t in statement.tables if t.name in db}
    try:
        return _translate_select(statement, schemas, ())
    except _STATEMENT_ERRORS as exc:
        raise SQLTranslationError(str(exc)) from exc


def error_tier(exc: BaseException) -> str:
    """The tier a front end reports ``exc`` under: ``rejected`` (an
    assertion violation; the transaction was rolled back), ``invalid``
    (the request's own fault — malformed SQL or frame, unknown names, type
    mistakes, key or engine rule violations) or ``internal`` (a bug)."""
    # Imported here: both modules import this package.
    from repro.constraints.assertions import AssertionViolation
    from repro.server.protocol import ProtocolError

    if isinstance(exc, AssertionViolation):
        return "rejected"
    malformed = (SQLSyntaxError, SQLTranslationError, ProtocolError)
    refused = (StorageError, TypeError_, EngineError, MaintenanceError)  # rows, keys, rules
    return "invalid" if isinstance(exc, malformed + refused) else "internal"
