"""The transactional engine facade.

One lifecycle for every write path in the system::

    engine = Engine(maintainer)
    txn = engine.begin()
    txn.stage("Emp", Delta.modification([(old, new)]))
    result = txn.commit()          # or txn.rollback() to discard

``commit()`` hands the staged transaction to the engine's
:class:`~repro.engine.policy.MaintenancePolicy`, which decides *when and
how* views are maintained (immediately, per batch, or with atomic
rejection of assertion violations). Every commit is measured with a scoped
I/O counter (per-transaction attribution) and journaled in an
:class:`~repro.storage.undo.UndoLog` of inverse deltas, so any policy —
and any storage error — can roll the database and all materialized views
back to the exact pre-transaction state, uncharged.

:class:`EngineTransaction` is also a context manager: a clean ``with``
block commits, an exception discards the staged work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.algebra.evaluate import evaluate
from repro.algebra.multiset import Multiset, Row
from repro.algebra.operators import RelExpr, Scan
from repro.ivm.delta import Delta
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.storage.pager import IOStats
from repro.storage.undo import UndoLog
from repro.workload.transactions import Transaction

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.engine.policy import MaintenancePolicy
    from repro.ivm.maintainer import ViewMaintainer


class EngineError(Exception):
    """Raised for transaction-lifecycle misuse (stage after commit, …)."""


@dataclass
class TransactionResult:
    """Outcome of one committed transaction.

    ``deferred`` marks a commit that only queued the transaction (its
    maintenance I/O will be attributed to the flushing commit);
    ``view_deltas`` / ``io`` / violation maps are empty for those.
    """

    txn: Transaction
    committed: bool
    deferred: bool = False
    view_deltas: dict[int, Delta] = field(default_factory=dict)
    io: IOStats = field(default_factory=IOStats)
    new_violations: dict[str, Multiset] = field(default_factory=dict)
    cleared_violations: dict[str, Multiset] = field(default_factory=dict)
    #: group-commit batch this transaction rode in (None outside the
    #: server's GroupCommitter); a composed batch's maintenance I/O is
    #: attributed to the batch, so per-client results in a batch carry an
    #: empty ``io``.
    batch: int | None = None

    @property
    def ok(self) -> bool:
        """True when the transaction introduced no assertion violations."""
        return not self.new_violations


class EngineTransaction:
    """One open transaction: stage deltas, then commit or roll back."""

    def __init__(self, engine: "Engine", name: str) -> None:
        self._engine = engine
        self.name = name
        self.state = "active"  # 'active' | 'committed' | 'rolled back'
        self._staged: dict[str, list[Delta]] = {}

    # -- staging -----------------------------------------------------------------

    def _check_active(self) -> None:
        if self.state != "active":
            raise EngineError(f"transaction {self.name!r} is already {self.state}")

    def stage(self, relation: str, delta: Delta) -> "EngineTransaction":
        """Stage a delta against ``relation``; nothing is applied until
        commit. Staging validates that the relation exists."""
        self._check_active()
        self._engine.db.relation(relation)  # raises StorageError if unknown
        if not delta.is_empty:
            self._staged.setdefault(relation, []).append(delta)
        return self

    def insert(self, relation: str, rows: Iterable[Row]) -> "EngineTransaction":
        """Stage insertions."""
        return self.stage(relation, Delta.insertion(rows))

    def delete(self, relation: str, rows: Iterable[Row]) -> "EngineTransaction":
        """Stage deletions."""
        return self.stage(relation, Delta.deletion(rows))

    def modify(
        self, relation: str, pairs: Iterable[tuple[Row, Row]]
    ) -> "EngineTransaction":
        """Stage (old, new) modifications."""
        return self.stage(relation, Delta.modification(pairs))

    @property
    def is_empty(self) -> bool:
        return not self._staged

    def staged_transaction(self) -> Transaction:
        """The staged work as one composed :class:`Transaction` (sequential
        deltas per relation are net-composed by
        :func:`~repro.ivm.deferred.compose_relations`)."""
        from repro.ivm.deferred import compose_relations

        steps = (
            {relation: delta}
            for relation, staged in self._staged.items()
            for delta in staged
        )
        return Transaction(self.name, compose_relations(self._engine.db, steps))

    # -- lifecycle ---------------------------------------------------------------

    def commit(self) -> TransactionResult:
        """Hand the staged transaction to the engine's policy.

        On success the transaction is ``committed``. If the policy rejects
        it (e.g. :class:`EnforcingPolicy` on an assertion violation) the
        database is already rolled back when the exception propagates and
        the transaction is marked ``rolled back``.
        """
        self._check_active()
        txn = self.staged_transaction()
        try:
            result = self._engine.execute(txn)
        except Exception:
            self.state = "rolled back"
            raise
        self.state = "committed"
        return result

    def rollback(self) -> None:
        """Discard the staged deltas; the database was never touched."""
        self._check_active()
        self._staged.clear()
        self.state = "rolled back"

    def __enter__(self) -> "EngineTransaction":
        self._check_active()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.state != "active":
            return  # already committed / rolled back explicitly
        if exc_type is None:
            self.commit()
        else:
            self.rollback()

    def __repr__(self) -> str:
        return f"<EngineTransaction {self.name} [{self.state}]: {sorted(self._staged)}>"


class Engine:
    """The single write path: database + maintainer + maintenance policy.

    Wraps a materialized :class:`~repro.ivm.maintainer.ViewMaintainer` and
    routes every transaction through one policy-driven commit pipeline;
    ``assertion_roots`` (assertion name → DAG root group) lets results
    carry per-assertion violation reports, and is what
    :class:`~repro.engine.policy.EnforcingPolicy` enforces against.
    """

    def __init__(
        self,
        maintainer: "ViewMaintainer",
        policy: "MaintenancePolicy | None" = None,
        assertion_roots: Mapping[str, int] | None = None,
        tracer: "Tracer | NullTracer | None" = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        from repro.engine.policy import ImmediatePolicy

        self.maintainer = maintainer
        self.db = maintainer.db
        self.assertion_roots = dict(assertion_roots or {})
        self.policy = policy if policy is not None else ImmediatePolicy()
        self.metrics = metrics if metrics is not None else get_metrics()
        self.tracer: "Tracer | NullTracer" = NULL_TRACER
        self.set_tracer(tracer)
        self._txn_seq = 0
        self._active_txn: EngineTransaction | None = None
        self.policy.bind(self)

    def set_tracer(self, tracer: "Tracer | NullTracer | None") -> None:
        """Attach (or detach, with ``None``) a tracer; it is bound to this
        engine's I/O counter so span I/O ties out to commit attribution."""
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.bind(self.db.counter)

    # -- lifecycle ---------------------------------------------------------------

    def begin(self, name: str | None = None) -> EngineTransaction:
        """Open a transaction (usable as a context manager).

        One at a time: beginning a second transaction while the previous
        one is still ``active`` raises :class:`EngineError` — two open
        transactions on one engine would interleave their journal entries
        in the :class:`~repro.storage.undo.UndoLog`, which is exactly the
        corruption a second concurrent client used to be able to trigger.
        Concurrent clients go through the server's single-writer commit
        queue instead (``repro.server``).
        """
        active = self._active_txn
        if active is not None and active.state == "active":
            raise EngineError(
                f"transaction {active.name!r} is still active; commit or "
                "roll it back before begin() — two open transactions would "
                "interleave their undo journals"
            )
        self._txn_seq += 1
        txn = EngineTransaction(self, name or f"__txn_{self._txn_seq}")
        self._active_txn = txn
        return txn

    def execute(self, txn: Transaction) -> TransactionResult:
        """Commit a ready-made :class:`Transaction` through the policy.

        Serialized on the database's write latch: the single-writer server
        thread and any single-session caller mutate storage one commit at
        a time (the latch is reentrant, so a deferred flush nested inside
        a commit still works)."""
        if not any(not d.is_empty for d in txn.deltas.values()):
            return TransactionResult(txn=txn, committed=True)
        return self._run_policy(self.policy.commit, txn)

    def flush(self) -> TransactionResult | None:
        """Flush policy-deferred work (no-op for immediate policies)."""
        return self._run_policy(self.policy.flush)

    def _run_policy(self, step, *args) -> TransactionResult | None:
        """Run one policy step under the write latch, counting failures
        (``engine.rollbacks``; ``engine.rejected`` for assertion
        violations) and folding a result into the metrics."""
        with self.db.latch:
            try:
                result = step(self, *args)
            except Exception as exc:
                self.metrics.counter("engine.rollbacks").inc()
                from repro.constraints.assertions import AssertionViolation

                if isinstance(exc, AssertionViolation):
                    self.metrics.counter("engine.rejected").inc()
                raise
        if result is not None:
            self._observe(result)
        return result

    # -- epochs (snapshot reads) ---------------------------------------------------

    @property
    def epoch(self) -> int:
        """The database's commit epoch (advances once per applied commit)."""
        return self.db.epoch_log.epoch

    def pin_epoch(self) -> int:
        """Pin the current epoch for snapshot reads (see :meth:`select`).

        While any pin is outstanding, each commit's inverse deltas are
        retained in the database's :class:`~repro.storage.undo.EpochLog`;
        always pair with :meth:`unpin_epoch` so the history can be freed.
        """
        return self.db.epoch_log.pin()

    def unpin_epoch(self, epoch: int) -> None:
        """Release an epoch pin taken with :meth:`pin_epoch`."""
        self.db.epoch_log.unpin(epoch)

    def note_commit(self, undo: UndoLog) -> None:
        """Policy hook: one commit reached its success point. Advances the
        shared epoch and retains the commit's inverse deltas while any
        reader holds an epoch pin."""
        self.db.epoch_log.note_commit(undo)

    def _observe(self, result: TransactionResult) -> None:
        """Fold one policy result into the metrics registry (no page I/O)."""
        m = self.metrics
        if result.deferred:
            m.counter("engine.deferrals").inc()
            return
        m.counter("engine.commits").inc()
        m.observe_io(result.io)
        m.histogram("engine.commit_io").observe(result.io.total)
        if result.new_violations:
            m.counter("engine.violations").inc(
                sum(rows.total() for rows in result.new_violations.values())
            )
        if result.cleared_violations:
            m.counter("engine.violations_cleared").inc(
                sum(rows.total() for rows in result.cleared_violations.values())
            )
        # Refresh the compiled-plan cache's cumulative hit rate (gauges:
        # last value wins, so folding it per commit is idempotent).
        from repro.algebra.compile import plan_cache

        pc = plan_cache()
        if pc.hits or pc.misses:
            m.observe_cache("plan", pc.hits, pc.misses)
        # Commit-scoped fetch/scan cache and the ad-hoc plan cache
        # (cumulative per maintainer; gauges, so idempotent per commit).
        cc = getattr(self.maintainer, "commit_cache_stats", None)
        if cc is not None and (cc.hits or cc.misses):
            m.observe_cache("commit", cc.hits, cc.misses)
            m.gauge("cache.commit.io_saved").set(cc.io_saved)
        apc = getattr(self.maintainer, "plan_cache", None)
        if apc is not None and (apc.stats.hits or apc.stats.misses):
            m.observe_cache("adhoc_plan", apc.stats.hits, apc.stats.misses)
        # Durable log traffic, reported apart from the paper's simulated
        # page-I/O accounting (gauges over the store's cumulative
        # PagerStats, so folding per commit is idempotent).
        durable = self.db.durable
        if durable is not None:
            for key, value in durable.stats.snapshot().items():
                m.gauge(f"durable.{key}").set(value)

    @property
    def pending(self) -> int:
        """Transactions the policy has accepted but not yet applied."""
        return self.policy.pending

    # -- reads -------------------------------------------------------------------

    def select(
        self, expr: RelExpr, epoch: int | None = None
    ) -> tuple[Multiset, IOStats]:
        """Evaluate a query, charged as scans of the base relations it
        reads (hash joins and aggregation are memory-resident, as in the
        maintainer's scan accounting). Returns (rows, this query's I/O).

        Charged per *leaf occurrence*, not per distinct relation: a
        self-join (Emp ⋈ Emp) reads the relation once per operand under
        the Section 3.6 model, exactly as the analytic ``scan_cost``
        prices each scan node.

        ``epoch`` (from :meth:`pin_epoch`) selects the snapshot-read path:
        the query sees the database exactly as of that epoch, regardless
        of commits applied since. The reader copies the scanned relations
        under the storage latch (a brief copy, not held for evaluation),
        replays the epoch log's inverse deltas newest-first down to the
        pinned epoch with the I/O counter suspended — undoing to a
        snapshot is bookkeeping, exactly like rollback — and evaluates
        against the reconstructed contents. Scans are charged at the
        *snapshot's* row counts, to a private counter: a snapshot reader
        never touches the shared ledger, so it cannot race the writer."""
        if epoch is not None:
            return self._select_at(expr, epoch)
        counter = self.db.counter
        with self.tracer.span("select", expr=type(expr).__name__):
            with self.db.latch:
                with counter.scoped() as scope:
                    for node in expr.walk():
                        if isinstance(node, Scan):
                            counter.charge_tuple_read(
                                self.db.relation(node.name).row_count
                            )
                    with counter.suspended():
                        result = evaluate(expr, self.db)
        self.metrics.counter("engine.selects").inc()
        self.metrics.observe_io(scope.stats)
        return result, scope.stats

    def _select_at(self, expr: RelExpr, epoch: int) -> tuple[Multiset, IOStats]:
        """Snapshot read: reconstruct the scanned relations as of ``epoch``
        from the live contents plus the epoch log's inverse deltas."""
        from repro.storage.pager import IOCounter

        names = {node.name for node in expr.walk() if isinstance(node, Scan)}
        with self.tracer.span("select", expr=type(expr).__name__, epoch=epoch):
            with self.db.latch:
                snapshot = {name: self.db.relation(name).contents() for name in names}
                replay = self.db.epoch_log.inverses_since(epoch)
            counter = IOCounter()  # private: never races the shared ledger
            with counter.suspended():
                # Newest commit first, inverses within a commit newest
                # first — the same order UndoLog.rollback applies them.
                for _, entries in reversed(replay):
                    for rel_name, inverse in reversed(entries):
                        contents = snapshot.get(rel_name)
                        if contents is not None:
                            _apply_inverse(contents, inverse)
            with counter.scoped() as scope:
                for node in expr.walk():
                    if isinstance(node, Scan):
                        counter.charge_tuple_read(snapshot[node.name].total())
                with counter.suspended():
                    result = evaluate(expr, snapshot)
        self.metrics.counter("engine.selects").inc()
        self.metrics.counter("engine.snapshot_selects").inc()
        return result, scope.stats

    def io_snapshot(self) -> IOStats:
        """Cumulative I/O of the underlying database counter."""
        return self.db.counter.snapshot()

    # -- policy plumbing ---------------------------------------------------------

    def apply_with_undo(self, txn: Transaction, undo: UndoLog) -> dict[int, Delta]:
        """Apply through the maintainer, journaling inverse deltas.

        Declared transaction types use their optimizer-chosen track;
        anything else goes through the ad-hoc path (track chosen on the
        fly from the concrete deltas). The engine's tracer is threaded
        per-call (engines built by :class:`AssertionSystem` share one
        maintainer, so the tracer cannot live on the maintainer itself).
        """
        if txn.type_name in self.maintainer.txn_types:
            return self.maintainer.apply(txn, undo=undo, tracer=self.tracer)
        return self.maintainer.apply_adhoc(
            txn, name=txn.type_name, undo=undo, tracer=self.tracer
        )

    def violations(
        self, view_deltas: Mapping[int, Delta]
    ) -> tuple[dict[str, Multiset], dict[str, Multiset]]:
        """Split assertion-root deltas into (entered, cleared) violations."""
        new: dict[str, Multiset] = {}
        cleared: dict[str, Multiset] = {}
        memo = self.maintainer.memo
        for name, root in self.assertion_roots.items():
            delta = view_deltas.get(memo.find(root))
            if delta is None or delta.is_empty:
                continue
            entered = delta.all_inserted()
            left = delta.all_deleted()
            if entered:
                new[name] = entered
            if left:
                cleared[name] = left
        return new, cleared

    def __repr__(self) -> str:
        return (
            f"<Engine policy={type(self.policy).__name__} "
            f"views={len(self.maintainer.marking)} pending={self.pending}>"
        )


def _apply_inverse(contents: Multiset, inverse: Delta) -> None:
    """Apply one journaled inverse delta onto a bare multiset copy —
    the snapshot-read analogue of ``StoredRelation.apply_delta``, minus
    indexes, constraints, and I/O charging."""
    contents.update(inverse.inserts, 1)
    contents.update(inverse.deletes, -1)
    for old, new in inverse.modifies:
        contents.add(old, -1)
        contents.add(new, 1)
