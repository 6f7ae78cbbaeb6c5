"""The transactional engine facade.

One entry for every write path in the system::

    engine = Engine(maintainer)
    result = engine.execute(
        Transaction("raise", {"Emp": Delta.modification([(old, new)])})
    )

:meth:`Engine.execute` is the one commit body: it maintains every
materialized view within the transaction (the paper's setting) through the
maintainer's one entry, :meth:`~repro.ivm.maintainer.ViewMaintainer.apply`,
which picks the track for every transaction, declared or not, and, on an
enforcing engine, rejects a transaction that enters an assertion
violation. Every commit is measured with a scoped I/O counter
(per-transaction attribution) and journaled in an
:class:`~repro.storage.undo.UndoLog` of applied deltas, its only record:
a rejection — or any storage error — rolls the database and all
materialized views back to the exact pre-transaction state, uncharged,
and a durable log receives the journal only once the commit is accepted.
Batching several transactions into one commit is the group committer's job
(:meth:`~repro.server.commit.GroupCommitter.commit_batch`), which composes
them and calls :meth:`Engine.execute` once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

from repro.algebra.compile import plan_cache, tuple_getter
from repro.algebra.evaluate import evaluate
from repro.algebra.multiset import Multiset, Row
from repro.algebra.operators import RelExpr, Scan, Select
from repro.algebra.predicates import TruePred, conjunction
from repro.ivm.delta import Delta
from repro.obs.metrics import MetricsRegistry, gc_counts
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
    """Raised when the engine or its group committer is misused (an
    enforcing engine without assertions, a submit to a closed committer, …)."""


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
    ) -> None:
        self.maintainer = maintainer
        self.db = maintainer.db
        self.assertion_roots = dict(assertion_roots or {})
        if enforce and not self.assertion_roots:
            raise EngineError("an enforcing Engine needs assertion_roots")
        self.enforce = enforce
        self.metrics = self._registry()
        self.tracer: "Tracer | NullTracer" = NULL_TRACER
        self.set_tracer(tracer)

    def _registry(self) -> MetricsRegistry:
        """This engine's registry, reading the counts its caches and
        durable log keep when a snapshot is taken (never on commit).
        ``cache.plan`` and ``runtime.gc`` count the whole process: the
        compiled-plan cache is process-wide, and so is the collector."""
        m = MetricsRegistry()
        m.source("cache.plan", lambda: plan_cache().stats._asdict())
        m.source("runtime.gc", gc_counts)
        cc = self.maintainer.commit_cache_stats
        m.source(
            "cache.commit",
            lambda: {"hits": cc.hits, "misses": cc.misses, "io_saved": cc.io_saved},
        )
        apc = self.maintainer.plan_cache
        if apc is not None:
            m.source("cache.adhoc_plan", lambda: apc.stats._asdict())
        if self.db.durable is not None:
            m.source("durable", self.db.durable.stats.snapshot)
        return m

    def set_tracer(self, tracer: "Tracer | NullTracer | None") -> None:
        """Attach (or detach, with ``None``) a tracer; it is bound to this
        engine's I/O counter so span I/O ties out to commit attribution."""
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.bind(self.db.counter)

    # -- commits -----------------------------------------------------------------

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
        Every transaction enters maintenance through the maintainer's
        ``apply``, which runs a declared type's track or plans the
        transaction from its data; the engine's tracer is passed per call,
        so :meth:`set_tracer` takes effect on the next commit.
        *Everything* between the start of the commit and its result — the
        maintainer apply, the assertion check, and the durable WAL commit of
        the undo journal — sits inside one rollback guard: an exception from
        any of them rolls back the applied base/view deltas before
        propagating, so even failed commits leave a consistent state. The journal reaches
        the log only after the check passes, so a rollback writes nothing.
        The durable commit only ever raises *before* its WAL barrier — the
        one step after it, the automatic checkpoint, has its I/O failures
        absorbed by the store — so this rollback never contradicts a
        durable commit record.

        A base delta storage refuses raises before any maintenance runs, so
        it charges and changes nothing. On an enforcing engine a commit that
        enters any assertion violation is rolled back (uncharged) and
        :class:`AssertionViolation` is raised; its maintenance ran and stays
        charged — ``scope`` already measured it.

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
                    view_deltas = self.maintainer.apply(txn, undo=undo, tracer=tracer)
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
        """Count one commit's own facts (no page I/O); cache and durable
        counts are read from their owners at snapshot time."""
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
