"""Tests for the transactional engine layer.

Covers the one commit entry (``Engine.execute``), inverse deltas and the
undo log, scoped I/O attribution, report-only and enforcing commits, and
atomicity of failed commits across relations and views.
"""

import pytest

from repro.algebra.compile import PLAN_CACHE_CAPACITY, plan_cache
from repro.algebra.evaluate import evaluate
from repro.algebra.multiset import Multiset
from repro.algebra.operators import Scan, Select
from repro.algebra.predicates import Compare
from repro.algebra.scalar import col, lit
from repro.constraints.assertions import AssertionSystem, AssertionViolation
from repro.core.optimizer import evaluate_view_set
from repro.cost.estimates import DagEstimator
from repro.cost.model import CostConfig
from repro.cost.page_io import PageIOCostModel
from repro.dag.builder import build_dag
from repro.engine import Engine, EngineError, UndoLog
from repro.ivm.delta import Delta
from repro.ivm.maintainer import ViewMaintainer
from repro.storage.relation import StorageError
from repro.storage.statistics import Catalog
from repro.workload.paperdb import DEPT_SCHEMA, problem_dept_tree
from repro.workload.transactions import Transaction, paper_transactions

DEPT_CONSTRAINT = """
CREATE ASSERTION DeptConstraint CHECK (NOT EXISTS (
    SELECT Dept.DName FROM Emp, Dept
    WHERE Dept.DName = Emp.DName
    GROUPBY Dept.DName, Budget
    HAVING SUM(Salary) > Budget))
"""


def build_maintainer(db, **config):
    dag = build_dag(problem_dept_tree())
    estimator = DagEstimator(dag.memo, Catalog.from_database(db))
    cost_model = PageIOCostModel(
        dag.memo, estimator, CostConfig(root_group=dag.root, **config)
    )
    txns = paper_transactions()
    sumofsals = next(
        g.id for g in dag.memo.groups() if set(g.schema.names) == {"DName", "SalSum"}
    )
    marking = frozenset({dag.root, dag.memo.find(sumofsals)})
    ev = evaluate_view_set(dag.memo, marking, txns, cost_model, estimator)
    maintainer = ViewMaintainer(
        db,
        dag,
        marking,
        txns,
        {name: plan.track for name, plan in ev.per_txn.items()},
        estimator,
        cost_model,
    )
    maintainer.materialize()
    return maintainer


@pytest.fixture
def engine(small_paper_db):
    return Engine(build_maintainer(small_paper_db))


def emp_raise(db, index=0, amount=5):
    old = sorted(db.relation("Emp").contents().rows())[index]
    new = (old[0], old[1], old[2] + amount)
    return old, new


def snapshot(engine):
    """Bit-exact state of every base relation and materialized view."""
    state = {name: engine.db.relation(name).contents() for name in ("Emp", "Dept")}
    for gid in sorted(engine.maintainer.marking):
        if not engine.maintainer.memo.group(gid).is_leaf:
            state[f"view:{gid}"] = engine.maintainer.view_contents(gid)
    return state


class TestDeltaInversion:
    def test_inverted_swaps_and_reverses(self):
        delta = Delta(
            inserts=Delta.insertion([(1,)]).inserts,
            deletes=Delta.deletion([(2,)]).deletes,
            modifies=[((3, 0), (3, 9))],
        )
        inv = delta.inverted()
        assert inv.inserts.count((2,)) == 1
        assert inv.deletes.count((1,)) == 1
        assert inv.modifies == [((3, 9), (3, 0))]

    def test_double_inversion_is_identity(self):
        delta = Delta.modification([((1, 2), (1, 3))])
        again = delta.inverted().inverted()
        assert again.modifies == delta.modifies
        assert again.inserts == delta.inserts
        assert again.deletes == delta.deletes

    def test_apply_delta_returns_inverse(self, small_paper_db):
        """``apply_delta`` builds no inverse; ``Delta.inverted`` of the
        applied delta is the reference inverse and restores the start."""
        rel = small_paper_db.relation("Dept")
        before = rel.contents()
        row = sorted(before.rows())[0]
        new = (row[0], row[1], row[2] + 7)
        delta = Delta.modification([(row, new)])
        assert rel.apply_delta(delta) is None
        assert rel.contents() != before
        inverse = delta.inverted()
        assert inverse == Delta.modification([(new, row)])
        rel.apply_delta(inverse)
        assert rel.contents() == before


class TestUndoLog:
    def test_rollback_restores_base_and_views(self, engine):
        before = snapshot(engine)
        old, new = emp_raise(engine.db)
        undo = UndoLog()
        engine.maintainer.apply(
            Transaction(">Emp", {"Emp": Delta.modification([(old, new)])}), undo
        )
        assert snapshot(engine) != before
        assert len(undo) > 0
        undo.rollback()
        assert snapshot(engine) == before
        assert len(undo) == 0
        engine.maintainer.verify()

    def test_rollback_is_uncharged(self, engine):
        old, new = emp_raise(engine.db)
        undo = UndoLog()
        engine.maintainer.apply(
            Transaction(">Emp", {"Emp": Delta.modification([(old, new)])}), undo
        )
        spent = engine.db.counter.total
        undo.rollback()
        assert engine.db.counter.total == spent

    def test_empty_deltas_not_recorded(self, engine):
        undo = UndoLog()
        undo.record(engine.db.relation("Emp"), Delta())
        assert len(undo) == 0


class TestScopedCounter:
    def test_scoped_measures_only_the_block(self, small_paper_db):
        counter = small_paper_db.counter
        counter.charge_tuple_read(10)
        with counter.scoped() as scope:
            counter.charge_tuple_read(3)
            counter.charge_index_write(2)
            assert scope.so_far.total == 5
        assert scope.stats.tuple_reads == 3
        assert scope.stats.index_writes == 2
        assert scope.stats.total == 5
        assert counter.total == 15

    def test_scoped_keeps_charging_enabled(self, small_paper_db):
        counter = small_paper_db.counter
        with counter.scoped() as outer:
            counter.charge_tuple_write(1)
            with counter.scoped() as inner:
                counter.charge_tuple_write(2)
            with counter.suspended():
                counter.charge_tuple_write(100)
        assert inner.stats.total == 2
        assert outer.stats.total == 3


class TestLifecycle:
    """``Engine.execute`` is the one commit entry: a transaction is either
    committed whole or raises with nothing changed."""

    def test_unknown_relation_changes_nothing(self, engine):
        """A transaction naming an unknown relation raises StorageError and
        leaves every relation and view as it was, even when it also
        changes a relation that exists."""
        before = snapshot(engine)
        old, new = emp_raise(engine.db)
        for deltas in (
            {"Nope": Delta.insertion([(1,)])},
            {
                "Emp": Delta.modification([(old, new)]),
                "Nope": Delta.insertion([(1,)]),
            },
        ):
            with pytest.raises(StorageError):
                engine.execute(Transaction("bad", deltas))
            assert snapshot(engine) == before
        engine.maintainer.verify()

    def test_cancelling_deltas_compose_to_nothing(self, engine):
        """Sequential deltas that cancel compose to no delta at all, and
        committing the composed transaction changes and charges nothing."""
        from repro.ivm.compose import compose_relations

        before = snapshot(engine)
        row = ("emp_new", "dept00000", 10)
        composed = compose_relations(
            engine.db,
            [{"Emp": Delta.insertion([row])}, {"Emp": Delta.deletion([row])}],
        )
        assert composed == {}
        spent = engine.db.counter.total
        result = engine.execute(Transaction("cancel", composed))
        assert result.committed and result.io.total == 0
        assert engine.db.counter.total == spent
        assert snapshot(engine) == before


class TestSnapshotReads:
    def scan(self, engine):
        from repro.workload.paperdb import EMP_SCHEMA

        return Scan("Emp", EMP_SCHEMA)

    def test_pinned_epoch_is_stable_across_commits(self, engine):
        epoch = engine.pin_epoch()
        before, _ = engine.select(self.scan(engine), epoch=epoch)
        old, new = emp_raise(engine.db)
        engine.execute(Transaction(">Emp", {"Emp": Delta.modification([(old, new)])}))
        pinned, _ = engine.select(self.scan(engine), epoch=epoch)
        live, _ = engine.select(self.scan(engine))
        assert pinned == before
        assert live != before
        assert new in live and new not in pinned
        engine.unpin_epoch(epoch)

    def test_snapshot_survives_inserts_and_deletes(self, engine):
        epoch = engine.pin_epoch()
        before, _ = engine.select(self.scan(engine), epoch=epoch)
        victim = sorted(engine.db.relation("Emp").contents().rows())[0]
        engine.execute(Transaction("Hire", {"Emp": Delta.insertion([("zz", "Toy", 3)])}))
        engine.execute(Transaction("Fire", {"Emp": Delta.deletion([victim])}))
        pinned, _ = engine.select(self.scan(engine), epoch=epoch)
        assert pinned == before
        engine.unpin_epoch(epoch)

    def test_history_retained_only_while_pinned(self, engine):
        log = engine.db.epoch_log
        old, new = emp_raise(engine.db)
        engine.execute(Transaction(">Emp", {"Emp": Delta.modification([(old, new)])}))
        assert log.retained == 0  # nobody was pinned: nothing kept
        epoch = engine.pin_epoch()
        old2, new2 = emp_raise(engine.db, index=1)
        engine.execute(Transaction(">Emp", {"Emp": Delta.modification([(old2, new2)])}))
        assert log.retained == 1
        engine.unpin_epoch(epoch)
        assert log.retained == 0

    def test_snapshot_io_charged_at_snapshot_rowcounts(self, engine):
        epoch = engine.pin_epoch()
        shared_before = engine.db.counter.snapshot()
        engine.execute(Transaction("Hire", {"Emp": Delta.insertion([("zz", "Toy", 3)])}))
        shared_mid = engine.db.counter.snapshot()
        rows, io = engine.select(self.scan(engine), epoch=epoch)
        # Scans price the *snapshot's* row count, and never touch the
        # shared ledger (snapshot readers must not race the writer).
        assert io.tuple_reads == rows.total()
        assert engine.db.counter.snapshot() == shared_mid
        assert shared_mid != shared_before
        engine.unpin_epoch(epoch)

    def test_snapshot_epoch_zero_is_initial_state(self, engine):
        initial = engine.db.relation("Emp").contents().copy()
        epoch = engine.pin_epoch()
        for index in range(3):
            old, new = emp_raise(engine.db, index=index)
            engine.execute(
                Transaction(">Emp", {"Emp": Delta.modification([(old, new)])})
            )
        pinned, _ = engine.select(self.scan(engine), epoch=epoch)
        assert pinned == initial
        engine.unpin_epoch(epoch)


class TestImmediatePolicy:
    """A report-only ``Engine`` (the class name predates ``enforce=`` and
    keeps these test ids stable)."""

    def test_commit_matches_direct_apply(self, small_paper_db):
        """Engine commit I/O equals a direct maintainer.apply, exactly."""
        import copy

        db2 = copy.deepcopy(small_paper_db)
        engine = Engine(build_maintainer(small_paper_db))
        maintainer2 = build_maintainer(db2)
        old, new = emp_raise(engine.db)
        result = engine.execute(
            Transaction(">Emp", {"Emp": Delta.modification([(old, new)])})
        )
        before = db2.counter.total
        maintainer2.apply(
            Transaction(">Emp", {"Emp": Delta.modification([(old, new)])})
        )
        direct = db2.counter.total - before
        assert result.io.total == direct

    def test_adhoc_transaction_type(self, engine):
        """Undeclared types route through the ad-hoc maintainer path."""
        old, new = emp_raise(engine.db)
        result = engine.execute(
            Transaction("__shell", {"Emp": Delta.modification([(old, new)])})
        )
        assert result.committed
        assert result.io.total > 0
        assert new in engine.db.relation("Emp").contents()
        assert old not in engine.db.relation("Emp").contents()
        assert "__shell" not in engine.maintainer.txn_types
        engine.maintainer.verify()

    def test_failed_commit_rolls_back_all_relations(self, engine):
        """A key violation in the second relation of a transaction leaves
        the first relation unchanged too: storage checks every base delta
        before any of them is applied."""
        before = snapshot(engine)
        dept = sorted(engine.db.relation("Dept").contents().rows())[0]
        dupe = sorted(engine.db.relation("Emp").contents().rows())[0]
        txn = Transaction(
            "bad",
            {
                "Dept": Delta.modification(
                    [(dept, (dept[0], dept[1], dept[2] + 1))]
                ),
                # Duplicate EName: violates Emp's candidate key.
                "Emp": Delta.insertion([(dupe[0], dupe[1], 99)]),
            },
        )
        with pytest.raises(StorageError):
            engine.execute(txn)
        # State is unchanged bit-exactly: storage refuses the Emp delta
        # before anything is propagated or applied, so nothing is charged.
        assert snapshot(engine) == before
        engine.maintainer.verify()


class TestSelect:
    def test_select_charges_base_scans(self, engine):
        rows, io = engine.select(Scan("Dept", DEPT_SCHEMA))
        assert rows == engine.db.relation("Dept").contents()
        assert io.total == engine.db.relation("Dept").row_count
        assert io.tuple_reads == io.total

    def test_select_accrues_on_engine_counter(self, engine):
        before = engine.io_snapshot().total
        _, io = engine.select(Scan("Dept", DEPT_SCHEMA))
        assert engine.io_snapshot().total == before + io.total

    def test_self_join_charges_each_leaf_occurrence(self, engine):
        # Emp ⋈ Emp reads the Emp pages twice: charging distinct relation
        # names only would undercount the scan by half.
        from repro.algebra.operators import Join

        emp = engine.db.relation("Emp")
        _, io = engine.select(Join(Scan("Emp", emp.schema), Scan("Emp", emp.schema)))
        assert io.tuple_reads == 2 * emp.row_count


class TestProbeRead:
    """A leaf whose selection pins a key or an indexed column is read by
    probe: charged as a lookup, evaluated without the answered conjuncts."""

    def test_key_pin_is_charged_as_a_lookup(self, engine):
        emp = engine.db.relation("Emp")
        row = sorted(emp.contents().rows())[3]
        expr = Select(Scan("Emp", emp.schema), Compare("=", col("EName"), lit(row[0])))
        rows, io = engine.select(expr)
        assert rows == Multiset([row])
        assert (io.index_reads, io.tuple_reads, io.total) == (1, 1, 2)

    def test_probed_reads_share_one_compiled_plan(self, engine):
        emp = engine.db.relation("Emp")
        names = sorted(r[0] for r in emp.contents().rows())
        scan = Scan("Emp", emp.schema)
        engine.select(Select(scan, Compare("=", col("EName"), lit(names[0]))))
        cache = plan_cache()
        misses = cache.misses
        for name in names[1:20]:
            engine.select(Select(scan, Compare("=", col("EName"), lit(name))))
        assert cache.misses == misses

    def test_unpinned_reads_leave_the_plan_cache_bounded(self, engine):
        emp = engine.db.relation("Emp")
        scan = Scan("Emp", emp.schema)
        contents = {"Emp": emp.contents()}
        cache = plan_cache()
        evictions = cache.evictions
        for n in range(2 * PLAN_CACHE_CAPACITY):
            expr = Select(scan, Compare(">", col("Salary"), lit(n - 100)))
            rows, _ = engine.select(expr)
            assert rows == evaluate(expr, contents, backend="interpreted")
            assert len(cache) <= PLAN_CACHE_CAPACITY
        assert cache.evictions - evictions >= PLAN_CACHE_CAPACITY
        old, new = emp_raise(engine.db)
        engine.execute(Transaction(">Emp", {"Emp": Delta.modification([(old, new)])}))
        gauges = engine.metrics.snapshot()
        assert gauges["cache.plan.entries"] == len(cache)
        assert gauges["cache.plan.evictions"] == cache.evictions


class TestEnforcingPolicy:
    """``Engine(enforce=True)`` (the class name predates ``enforce=`` and
    keeps these test ids stable)."""

    def test_requires_assertion_roots(self, small_paper_db):
        with pytest.raises(EngineError):
            Engine(build_maintainer(small_paper_db), enforce=True)

    def test_violation_rolled_back_atomically(self, small_paper_db):
        system = AssertionSystem(
            small_paper_db, [DEPT_CONSTRAINT], paper_transactions(), enforce=True
        )
        engine = system.engine
        before = snapshot(engine)
        dept = sorted(small_paper_db.relation("Dept").contents().rows())[0]
        txn = Transaction(
            ">Dept",
            {"Dept": Delta.modification([(dept, (dept[0], dept[1], 1))])},
        )
        with pytest.raises(AssertionViolation) as info:
            engine.execute(txn)
        assert info.value.assertion == "DeptConstraint"
        assert snapshot(engine) == before
        assert system.all_satisfied()
        system.maintainer.verify()

    def test_clean_txn_commits(self, small_paper_db):
        system = AssertionSystem(
            small_paper_db, [DEPT_CONSTRAINT], paper_transactions(), enforce=True
        )
        dept = sorted(small_paper_db.relation("Dept").contents().rows())[0]
        result = system.engine.execute(
            Transaction(
                ">Dept",
                {"Dept": Delta.modification([(dept, (dept[0], dept[1], 100_000))])},
            )
        )
        assert result.committed and result.ok
