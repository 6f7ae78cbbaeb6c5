"""The transactional engine facade.

One lifecycle for every write path in the system::

    engine = Engine(maintainer)
    txn = engine.begin()
    txn.stage("Emp", Delta.modification([(old, new)]))
    result = txn.commit()          # or txn.rollback() to discard

``commit()`` hands the staged transaction to the engine's one commit
body, which maintains every materialized view within the transaction (the
paper's setting) and, on an enforcing engine, rejects a transaction that
enters an assertion violation. Every commit is measured with a scoped I/O
counter (per-transaction attribution) and journaled in an
:class:`~repro.storage.undo.UndoLog` of applied deltas, its only record:
a rejection — or any storage error — rolls the database and all
materialized views back to the exact pre-transaction state, uncharged,
and a durable log receives the journal only once the commit is accepted.
Batching several transactions into one commit is the group committer's job
(:meth:`~repro.server.commit.GroupCommitter.commit_batch`).

:class:`EngineTransaction` is also a context manager: a clean ``with``
block commits, an exception discards the staged work.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from repro.algebra.compile import tuple_getter
from repro.algebra.evaluate import evaluate
from repro.algebra.multiset import Multiset, Row
from repro.algebra.operators import RelExpr, Scan, Select
from repro.algebra.predicates import TruePred, conjunction
from repro.ivm.delta import Delta
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.storage.pager import IOStats
from repro.storage.relation import equality_pins
from repro.storage.undo import UndoLog
from repro.workload.transactions import Transaction

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.ivm.maintainer import ViewMaintainer
    from repro.storage.database import Database
    from repro.storage.pager import IOCounter


class EngineError(Exception):
    """Raised for transaction-lifecycle misuse (stage after commit, …)."""


@dataclass
class TransactionResult:
    """Outcome of one committed transaction."""

    txn: Transaction
    committed: bool
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
        """Hand the staged transaction to the engine's commit body.

        On success the transaction is ``committed``. If the engine rejects
        it (an enforcing engine on an assertion violation) the
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
    """The single write path: database + maintainer + one commit body.

    Wraps a materialized :class:`~repro.ivm.maintainer.ViewMaintainer` and
    commits every transaction through :meth:`execute`. ``assertion_roots``
    (assertion name → DAG root group) lets results carry per-assertion
    violation reports; with ``enforce=True`` a transaction that enters any
    violation is rolled back atomically (base relations and every view
    restored bit-identically, the rollback uncharged) and
    :class:`~repro.constraints.assertions.AssertionViolation` is raised —
    the paper's §6 integrity checking upgraded from "report" to "enforce".
    """

    def __init__(
        self,
        maintainer: "ViewMaintainer",
        enforce: bool = False,
        assertion_roots: Mapping[str, int] | None = None,
        tracer: "Tracer | NullTracer | None" = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.maintainer = maintainer
        self.db = maintainer.db
        self.assertion_roots = dict(assertion_roots or {})
        if enforce and not self.assertion_roots:
            raise EngineError("an enforcing Engine needs assertion_roots")
        self.enforce = enforce
        self.metrics = metrics if metrics is not None else get_metrics()
        self.tracer: "Tracer | NullTracer" = NULL_TRACER
        self.set_tracer(tracer)
        self._txn_seq = 0
        self._active_txn: EngineTransaction | None = None

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
        """Commit a ready-made :class:`Transaction` — the one commit entry.

        Serialized on the database's write latch: the single-writer server
        thread and any single-session caller mutate storage one commit at
        a time. A failure is counted (``engine.rollbacks``;
        ``engine.rejected`` for an assertion violation) and re-raised with
        the database already rolled back."""
        if not any(not d.is_empty for d in txn.deltas.values()):
            return TransactionResult(txn=txn, committed=True)
        with self.db.latch:
            try:
                result = self._commit(txn)
            except Exception as exc:
                self.metrics.counter("engine.rollbacks").inc()
                from repro.constraints.assertions import AssertionViolation

                if isinstance(exc, AssertionViolation):
                    self.metrics.counter("engine.rejected").inc()
                raise
        self._observe(result)
        return result

    def _commit(self, txn: Transaction) -> TransactionResult:
        """The one commit body: scoped I/O, undo journal, violation report.
        *Everything* between begin and the result — the maintainer apply,
        the assertion check, and the durable WAL commit of the undo
        journal — sits inside one rollback guard: an exception from any of
        them rolls back the applied base/view deltas before propagating, so
        even failed commits leave a consistent state. The journal reaches
        the log only after the check passes, so a rollback writes nothing.
        The durable commit only ever raises *before* its WAL barrier — the
        one step after it, the automatic checkpoint, has its I/O failures
        absorbed by the store — so this rollback never contradicts a
        durable commit record.

        On an enforcing engine a commit that enters any assertion violation
        is rolled back (uncharged) and :class:`AssertionViolation` is
        raised. The attempted maintenance work stays charged — ``scope``
        already measured it.

        The "txn" span wraps exactly the scoped region plus the assertion
        check, so its measured I/O equals the commit's
        ``TransactionResult.io`` — the tie-out the observability layer
        promises. The durable commit is outside the scoped region and never
        charges the I/O counter: actual log traffic is accounted separately
        in ``PagerStats``."""
        tracer = self.tracer
        undo = UndoLog()
        durable = self.db.durable
        label = "enforce" if self.enforce else "immediate"
        with tracer.span("txn", txn=txn.type_name, policy=label) as span:
            try:
                with self.db.counter.scoped() as scope:
                    view_deltas = self.apply_with_undo(txn, undo)
                    with tracer.span(
                        "assertion_check", assertions=len(self.assertion_roots)
                    ):
                        new, cleared = self.violations(view_deltas)
                rejected = min(new) if self.enforce and new else None
                if rejected is None and durable is not None:
                    durable.commit(
                        txn.type_name,
                        [(relation.name, delta) for relation, delta in undo.entries],
                        tracer=tracer,
                    )
            except Exception:
                with tracer.span("rollback", reason="commit-error"):
                    undo.rollback()
                raise
            if rejected is not None:
                from repro.constraints.assertions import AssertionViolation

                with tracer.span("rollback", reason="assertion-violation"):
                    undo.rollback()
                span.annotate(outcome="rejected", violation=rejected)
                raise AssertionViolation(rejected, new[rejected])
            # Past the point of no return: advance the snapshot epoch (and
            # retain the inverses of the undo journal for any pinned
            # readers) before the journal is discarded.
            self.db.epoch_log.note_commit(undo)
            span.annotate(outcome="committed")
        return TransactionResult(
            txn=txn,
            committed=True,
            view_deltas=view_deltas,
            io=scope.stats,
            new_violations=new,
            cleared_violations=cleared,
        )

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

    def _observe(self, result: TransactionResult) -> None:
        """Fold one commit's result into the metrics registry (no page I/O)."""
        m = self.metrics
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
        # Refresh the compiled-plan cache's cumulative hit rate, size and
        # evictions (gauges: last value wins, so folding it per commit is
        # idempotent).
        from repro.algebra.compile import plan_cache

        pc = plan_cache()
        if pc.hits or pc.misses:
            m.observe_cache("plan", pc.hits, pc.misses)
            m.gauge("cache.plan.entries").set(len(pc))
            m.gauge("cache.plan.evictions").set(pc.evictions)
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

    # -- reads -------------------------------------------------------------------

    def select(
        self, expr: RelExpr, epoch: int | None = None
    ) -> tuple[Multiset, IOStats]:
        """Evaluate a query; returns (rows, this query's I/O).

        One read planner serves both paths (:class:`_ReadPlan`). A scan
        leaf whose parent selection pins a declared key or an indexed
        column set with ``column = literal`` conjuncts is read by probe,
        charged as the Section 3.6 lookup — one index page plus one tuple
        page per probed row — and evaluated without the conjuncts the probe
        answered. Every other leaf is copied whole and charged as a scan
        (hash joins and aggregation are memory-resident, as in the
        maintainer's scan accounting), per *leaf occurrence*, not per
        distinct relation: a self-join (Emp ⋈ Emp) reads the relation once
        per operand, exactly as the analytic ``scan_cost`` prices each scan
        node.

        Without ``epoch`` the read sees the live database and is charged to
        the shared counter. ``epoch`` (from :meth:`pin_epoch`) selects the
        snapshot-read path: the query sees the database exactly as of that
        epoch, regardless of commits applied since. The reader probes and
        copies under the storage latch (briefly, not held for evaluation),
        replays the epoch log's inverse deltas newest-first down to the
        pinned epoch — uncharged, undoing to a snapshot is bookkeeping,
        exactly like rollback; a probed leaf keeps only the inverse rows
        that carry its probe key — and evaluates against the reconstructed
        rows. It is charged at the *snapshot's* row counts, to a private
        counter: a snapshot reader never touches the shared ledger, so it
        cannot race the writer."""
        if epoch is not None:
            return self._select_at(expr, epoch)
        counter = self.db.counter
        with self.tracer.span("select", expr=type(expr).__name__):
            with self.db.latch:
                read = _ReadPlan(expr, self.db)
                with counter.scoped() as scope:
                    result = read.run(counter)
        self.metrics.counter("engine.selects").inc()
        self.metrics.observe_io(scope.stats)
        return result, scope.stats

    def _select_at(self, expr: RelExpr, epoch: int) -> tuple[Multiset, IOStats]:
        """Snapshot read: the planned rows as of ``epoch``, from the live
        rows plus the epoch log's inverse deltas."""
        from repro.storage.pager import IOCounter

        with self.tracer.span("select", expr=type(expr).__name__, epoch=epoch):
            with self.db.latch:
                read = _ReadPlan(expr, self.db)
                replay = self.db.epoch_log.inverses_since(epoch)
            read.rewind(replay)
            counter = IOCounter()  # private: never races the shared ledger
            with counter.scoped() as scope:
                result = read.run(counter)
        self.metrics.counter("engine.selects").inc()
        self.metrics.counter("engine.snapshot_selects").inc()
        return result, scope.stats

    def io_snapshot(self) -> IOStats:
        """Cumulative I/O of the underlying database counter."""
        return self.db.counter.snapshot()

    # -- commit plumbing ---------------------------------------------------------

    def apply_with_undo(self, txn: Transaction, undo: UndoLog) -> dict[int, Delta]:
        """Apply through the maintainer, journaling the applied deltas.

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
            f"<Engine enforce={self.enforce} "
            f"views={len(self.maintainer.marking)}>"
        )


class _ReadPlan:
    """One read, planned under the storage latch: which scan leaves a probe
    answers, the rows each relation contributes, and the expression to
    evaluate over them.

    A leaf is probed when its parent :class:`Select` pins a declared key or
    an indexed column set (:func:`~repro.storage.relation.equality_pins`,
    :meth:`~repro.storage.relation.StoredRelation.candidates` — the probe
    choice DML makes too) and its relation occurs in no other leaf. The
    conjuncts whose literals became the probe key are dropped from the
    selection, so the evaluated plan carries no literal and its compiled
    form is reused across keys. Any other leaf is a full copy.
    """

    def __init__(self, expr: RelExpr, db: "Database") -> None:
        self._db = db
        self._occurrences = Counter(n.name for n in expr.walk() if isinstance(n, Scan))
        #: relation name -> its rows as this read sees them
        self._rows: dict[str, Multiset] = {}
        #: scanned relation name -> its row count (kept in step by rewind)
        self._scanned: dict[str, int] = {}
        #: probed relation name -> "the row carries the probe key"
        self._filters: dict[str, Callable[[Row], bool]] = {}
        #: one (relation name, probed?) per leaf occurrence, for the charge
        self._leaves: list[tuple[str, bool]] = []
        self._expr = self._plan(expr)

    def _plan(self, node: RelExpr) -> RelExpr:
        if isinstance(node, Select) and isinstance(node.input, Scan):
            probed = self._probe(node)
            if probed is not None:
                return probed
        if isinstance(node, Scan):
            if node.name not in self._rows:
                relation = self._db.relation(node.name)
                self._rows[node.name] = relation.contents()
                self._scanned[node.name] = relation.row_count
            self._leaves.append((node.name, False))
            return node
        children = node.children
        planned = tuple(self._plan(child) for child in children)
        if all(a is b for a, b in zip(planned, children)):
            return node
        return node.with_children(planned)

    def _probe(self, select: Select) -> RelExpr | None:
        scan = select.input
        if self._occurrences[scan.name] != 1:
            return None
        relation = self._db.relation(scan.name)
        pins = equality_pins(select.predicate, relation.schema)
        found = relation.candidates({column: value for column, (value, _) in pins.items()})
        if found is None:
            return None
        columns, rows = found
        self._rows[scan.name] = Multiset(rows)
        getter = tuple_getter(tuple(relation.schema.index_of(c) for c in columns))
        key = tuple(pins[c][0] for c in columns)
        self._filters[scan.name] = lambda row: getter(row) == key
        self._leaves.append((scan.name, True))
        answered = {pins[c][1] for c in columns}
        residual = conjunction(p for p in select.predicate.conjuncts() if p not in answered)
        return scan if isinstance(residual, TruePred) else Select(scan, residual)

    def rewind(self, replay: list[tuple[int, tuple[tuple[str, Delta], ...]]]) -> None:
        """Undo the commits in ``replay`` (``EpochLog.inverses_since``) on
        the planned rows: newest commit first, inverses within a commit
        newest first — the order ``UndoLog.rollback`` applies them. A
        probed relation keeps only the inverse rows with its probe key."""
        for _, entries in reversed(replay):
            for name, inverse in reversed(entries):
                rows = self._rows.get(name)
                if rows is None:
                    continue
                _apply_inverse(rows, inverse, self._filters.get(name))
                if name in self._scanned:
                    self._scanned[name] += inverse.inserts.total() - inverse.deletes.total()

    def run(self, counter: "IOCounter") -> Multiset:
        """Charge every leaf to ``counter`` and evaluate the planned
        expression over the planned rows (which charges nothing)."""
        for name, probed in self._leaves:
            if probed:
                counter.charge_index_read()
                counter.charge_tuple_read(self._rows[name].total())
            else:
                counter.charge_tuple_read(self._scanned[name])
        return evaluate(self._expr, self._rows)


def _apply_inverse(
    contents: Multiset, inverse: Delta, keep: Callable[[Row], bool] | None = None
) -> None:
    """Apply one journaled inverse delta onto a bare multiset copy —
    the snapshot-read analogue of ``StoredRelation.apply_delta``, minus
    indexes, constraints, and I/O charging. With ``keep``, only the rows
    it accepts are applied (selection distributes over the signed sum)."""
    if keep is None:
        contents.update(inverse.inserts, 1)
        contents.update(inverse.deletes, -1)
        for old, new in inverse.modifies:
            contents.add(old, -1)
            contents.add(new, 1)
        return
    for row, n in inverse.inserts.items():
        if keep(row):
            contents.add(row, n)
    for row, n in inverse.deletes.items():
        if keep(row):
            contents.add(row, -n)
    for old, new in inverse.modifies:
        if keep(old):
            contents.add(old, -1)
        if keep(new):
            contents.add(new, 1)
