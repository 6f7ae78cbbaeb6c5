"""Delta composition: many transactions' deltas as one net transaction.

The paper maintains views per transaction. A standard engineering
refinement — and a direct beneficiary of its cost model — is to treat a
*batch* of updates as one delta: composition collapses repeated work (k
salary updates in one department become one group update; an insert later
deleted vanishes entirely), and the batch amortizes index pages across
transactions.

:func:`compose_relations` is the one place deltas are composed per
relation, and :func:`compose_batch` names its result as a transaction.
Every write path that folds several transactions (or statements) into one
commit uses them: group commit
(:meth:`~repro.server.commit.GroupCommitter.commit_batch`, the only caller
of :func:`compose_batch` and the only code that batches commits, in the
server and in process alike) and multi-statement SQL
(:func:`~repro.sql.dml.dml_transaction`). The composed transaction is then
committed through :meth:`~repro.engine.engine.Engine.execute`, the one
commit entry, like any other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.algebra.schema import Schema
from repro.ivm.delta import Delta
from repro.workload.transactions import Transaction

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.storage.database import Database


def compose_deltas(schema: Schema, deltas: Iterable[Delta]) -> Delta:
    """Compose sequential deltas into one net delta.

    The net signed multiset of the sequence is computed, split into
    inserts/deletes, and delete+insert pairs sharing a candidate key are
    re-paired into modifications (so storage charges read-modify-write).
    A row inserted and later deleted cancels entirely.
    """
    net = None
    for delta in deltas:
        step = delta.net()
        net = step if net is None else net + step
    if net is None:
        return Delta()
    composed = Delta.from_net(net)
    if schema.keys:
        composed = composed.pair_modifications(schema.pairing_key)
    return composed


def compose_relations(
    db: "Database", steps: Iterable[Mapping[str, Delta]]
) -> dict[str, Delta]:
    """Compose a sequence of per-relation delta maps into one net map.

    Per relation — iterated in sorted order, so the composed apply order
    (and per-span I/O attribution) does not depend on PYTHONHASHSEED —
    the sequential deltas are net-composed with :func:`compose_deltas`;
    relations whose deltas cancel are dropped.
    """
    steps = list(steps)
    combined: dict[str, Delta] = {}
    for relation in sorted({r for step in steps for r in step}):
        schema = db.relation(relation).schema
        composed = compose_deltas(
            schema, (step.get(relation, Delta()) for step in steps)
        )
        if not composed.is_empty:
            combined[relation] = composed
    return combined


def compose_batch(
    db: "Database", txns: Sequence[Transaction], name: str
) -> Transaction | None:
    """Compose many transactions into one net transaction named ``name``.

    Returns ``None`` when everything cancels: a cancelling batch costs
    zero I/O.
    """
    combined = compose_relations(db, (t.deltas for t in txns))
    return Transaction(name, combined) if combined else None
