"""Pluggable maintenance policies: *when and how* a commit maintains views.

Every policy sees the same commit pipeline (scoped I/O attribution + an
:class:`~repro.storage.undo.UndoLog` of inverse deltas); they differ in
what happens around it:

* :class:`ImmediatePolicy` — the paper's per-transaction maintenance:
  apply base deltas, propagate to every materialized view, commit.
* :class:`DeferredPolicy` — queue commits and refresh views once per
  batch (composed deltas collapse repeated work); flush on demand or
  automatically every ``batch_size`` commits.
* :class:`EnforcingPolicy` — assertion checking with teeth: a transaction
  that introduces violations is rolled back **atomically** (base
  relations and all views restored bit-identically, rollback uncharged)
  and :class:`~repro.constraints.assertions.AssertionViolation` is raised
  over the clean pre-transaction state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.engine import EngineError, TransactionResult
from repro.ivm.deferred import compose_batch
from repro.storage.undo import UndoLog
from repro.workload.transactions import Transaction

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.engine.engine import Engine


def _rollback(engine: "Engine", undo: UndoLog, reason: str) -> None:
    """Shared failure path: undo everything (journaling rollback progress
    into the WAL when durable) and discard the durable transaction."""
    durable = engine.db.durable
    with engine.tracer.span("rollback", reason=reason):
        undo.rollback(journal=durable.journal_undo if durable is not None else None)
    if durable is not None:
        durable.abort()


def _commit_through_maintainer(
    engine: "Engine",
    txn: Transaction,
    policy_label: str = "immediate",
    enforce: bool = False,
) -> TransactionResult:
    """The one commit body: scoped I/O, undo journal, violation report.
    *Everything* between begin and the result — the maintainer apply, the
    assertion check, and the durable WAL/page commit — sits inside one
    rollback guard: an exception from any of them rolls back the applied
    base/view deltas before propagating, so even failed commits leave a
    consistent state. (Guarding only the apply would let a raising
    assertion check strand the applied deltas with the undo log dropped.)
    The durable commit only ever raises *before* its WAL barrier — deltas
    are size-validated pre-log, and a post-barrier page failure is
    absorbed by the store, which rolls forward from the log — so this
    rollback never contradicts a durable commit record.

    ``enforce`` is :class:`EnforcingPolicy`'s one difference: a commit
    that enters any assertion violation is rolled back (before the durable
    commit, uncharged) and :class:`AssertionViolation` is raised. The
    attempted maintenance work stays charged — ``scope`` already measured
    it.

    The "txn" span wraps exactly the scoped region plus the assertion
    check, so its measured I/O equals the commit's ``TransactionResult.io``
    — the tie-out the observability layer promises. The durable commit is
    outside the scoped region and never charges the I/O counter: actual
    page traffic is accounted separately in ``PagerStats``."""
    tracer = engine.tracer
    undo = UndoLog()
    durable = engine.db.durable
    with tracer.span("txn", txn=txn.type_name, policy=policy_label) as span:
        if durable is not None:
            durable.begin(txn.type_name)
        try:
            with engine.db.counter.scoped() as scope:
                view_deltas = engine.apply_with_undo(txn, undo)
                with tracer.span(
                    "assertion_check", assertions=len(engine.assertion_roots)
                ):
                    new, cleared = engine.violations(view_deltas)
            rejected = min(new) if enforce and new else None
            if rejected is None and durable is not None:
                durable.commit(tracer=tracer)
        except Exception:
            _rollback(engine, undo, reason="commit-error")
            raise
        if rejected is not None:
            from repro.constraints.assertions import AssertionViolation

            _rollback(engine, undo, reason="assertion-violation")
            span.annotate(outcome="rejected", violation=rejected)
            raise AssertionViolation(rejected, new[rejected])
        # Past the point of no return: advance the snapshot epoch (and
        # retain the undo journal's inverses for any pinned readers)
        # before the journal is discarded.
        engine.note_commit(undo)
        span.annotate(outcome="committed")
    return TransactionResult(
        txn=txn,
        committed=True,
        view_deltas=view_deltas,
        io=scope.stats,
        new_violations=new,
        cleared_violations=cleared,
    )


class MaintenancePolicy:
    """Strategy interface for :class:`~repro.engine.engine.Engine` commits."""

    def bind(self, engine: "Engine") -> None:
        """Called once when attached to an engine (build per-engine state)."""

    def commit(self, engine: "Engine", txn: Transaction) -> TransactionResult:
        """Commit one transaction; must either apply-and-report or raise
        with the database rolled back to the pre-transaction state."""
        raise NotImplementedError

    def flush(self, engine: "Engine") -> TransactionResult | None:
        """Apply any deferred work; immediate policies have none."""
        return None

    @property
    def pending(self) -> int:
        """Commits accepted but not yet applied to the database."""
        return 0


class ImmediatePolicy(MaintenancePolicy):
    """Maintain every materialized view within the committing transaction
    (the paper's setting)."""

    def commit(self, engine: "Engine", txn: Transaction) -> TransactionResult:
        """Apply base deltas and propagate to all views, atomically."""
        return _commit_through_maintainer(engine, txn)


class EnforcingPolicy(MaintenancePolicy):
    """Immediate maintenance that *rejects* violating transactions.

    Requires the engine to know its ``assertion_roots``. On violation, the
    undo log restores base relations and every materialized view exactly
    (uncharged), then :class:`AssertionViolation` is raised — the paper's
    §6 integrity checking upgraded from "report" to "enforce".
    """

    def bind(self, engine: "Engine") -> None:
        """Validate that the engine can attribute violations."""
        if not engine.assertion_roots:
            raise EngineError(
                "EnforcingPolicy needs an Engine with assertion_roots"
            )

    def commit(self, engine: "Engine", txn: Transaction) -> TransactionResult:
        """Apply, check assertion roots, and roll back atomically on entry
        of any violation."""
        return _commit_through_maintainer(
            engine, txn, policy_label="enforce", enforce=True
        )


class DeferredPolicy(MaintenancePolicy):
    """Queue commits; refresh all views once per batch.

    ``commit`` returns a ``deferred`` result — queued transactions are not
    visible in the database until flush, the usual deferred-maintenance
    contract. When ``batch_size`` is set, the commit that fills the batch
    flushes it and returns the batch's *applied* result instead. A flush
    composes the queue with :func:`~repro.ivm.deferred.compose_batch` and
    commits the one combined transaction through the ordinary pipeline.
    """

    def __init__(self, batch_size: int | None = None) -> None:
        if batch_size is not None and batch_size < 1:
            raise EngineError("batch_size must be positive")
        self.batch_size = batch_size
        self._queue: list[Transaction] = []
        self._flushes = 0

    def commit(self, engine: "Engine", txn: Transaction) -> TransactionResult:
        """Enqueue; flush (and return the applied batch result) when the
        batch is full."""
        with engine.tracer.span("defer", txn=txn.type_name):
            self._queue.append(txn)
        if self.batch_size is not None and len(self._queue) >= self.batch_size:
            flushed = self.flush(engine)
            if flushed is not None:
                return flushed
        return TransactionResult(txn=txn, committed=True, deferred=True)

    def compose(self, engine: "Engine") -> Transaction | None:
        """Drain the queue into one net combined transaction (no apply).

        Returns ``None`` when the queue is empty or the composed deltas
        cancel out entirely — a cancelling batch costs zero I/O.
        """
        if not self._queue:
            return None
        combined = compose_batch(
            engine.db, self._queue, f"__batch_{self._flushes + 1}"
        )
        self._queue.clear()
        self._flushes += 1
        return combined

    def flush(self, engine: "Engine") -> TransactionResult | None:
        """Compose the queue into one transaction and commit it now.

        ``compose()`` drains the queue before the commit runs, so a commit
        that raises hands the batch back at the queue head (the commit
        already rolled the database back) — otherwise a storage error
        mid-flush would silently lose every queued transaction. After the
        error propagates, ``pending`` still counts the batch, anything
        enqueued later composes behind it, and a retry can succeed."""
        combined = self.compose(engine)
        if combined is None:
            return None
        try:
            return _commit_through_maintainer(
                engine, combined, policy_label="deferred-flush"
            )
        except Exception:
            self._queue.insert(0, combined)
            raise

    @property
    def pending(self) -> int:
        return len(self._queue)
