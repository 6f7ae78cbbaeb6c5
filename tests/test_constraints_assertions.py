"""Tests for SQL-92 assertion checking as empty-view maintenance."""

import pytest

from repro.constraints.assertions import AssertionSystem, AssertionViolation
from repro.ivm.delta import Delta
from repro.workload.transactions import Transaction, paper_transactions

DEPT_CONSTRAINT = """
CREATE ASSERTION DeptConstraint CHECK (NOT EXISTS (
    SELECT Dept.DName FROM Emp, Dept
    WHERE Dept.DName = Emp.DName
    GROUPBY Dept.DName, Budget
    HAVING SUM(Salary) > Budget))
"""

HEADCOUNT_CONSTRAINT = """
CREATE ASSERTION DeptHeadcount CHECK (NOT EXISTS (
    SELECT DName FROM Emp
    GROUPBY DName
    HAVING COUNT(*) > 50))
"""


@pytest.fixture
def system(small_paper_db):
    # The generated budgets (400-800) comfortably exceed 5 × max salary 70,
    # so the constraint holds initially.
    return AssertionSystem(
        small_paper_db, [DEPT_CONSTRAINT], paper_transactions()
    )


def dept_budget_txn(db, dname, new_budget):
    old = next(
        r for r in db.relation("Dept").contents().rows() if r[0] == dname
    )
    new = (old[0], old[1], new_budget)
    return Transaction(">Dept", {"Dept": Delta.modification([(old, new)])})


class TestSetup:
    def test_initially_satisfied(self, system):
        assert system.all_satisfied()
        assert not system.current_violations("DeptConstraint")

    def test_optimizer_chose_auxiliary_view(self, system):
        """SumOfSals-shaped auxiliary view should be selected."""
        extras = system.plan.best_marking - frozenset(
            system.dag.memo.find(r) for r in system._roots.values()
        )
        names = [
            set(system.dag.memo.group(g).schema.names) for g in extras
        ]
        assert {"DName", "SalSum"} in names or {"DName", "sum_salary"} in names

    def test_rejects_non_assertion(self, small_paper_db):
        with pytest.raises(ValueError):
            AssertionSystem(
                small_paper_db,
                ["CREATE VIEW V (D) AS SELECT DName FROM Dept"],
                paper_transactions(),
            )


class TestProcessing:
    def test_violation_detected(self, system, small_paper_db):
        txn = dept_budget_txn(small_paper_db, "dept00000", 1)
        result = system.engine.execute(txn)
        assert not result.ok
        assert "DeptConstraint" in result.new_violations
        assert ("dept00000",) in result.new_violations["DeptConstraint"]
        assert not system.all_satisfied()

    def test_violation_cleared(self, system, small_paper_db):
        system.engine.execute(dept_budget_txn(small_paper_db, "dept00000", 1))
        result = system.engine.execute(dept_budget_txn(small_paper_db, "dept00000", 100_000))
        assert result.ok
        assert "DeptConstraint" in result.cleared_violations
        assert system.all_satisfied()

    def test_benign_txn_ok(self, system, small_paper_db):
        emp = sorted(small_paper_db.relation("Emp").contents().rows())[0]
        new = (emp[0], emp[1], emp[2] + 1)
        result = system.engine.execute(
            Transaction(">Emp", {"Emp": Delta.modification([(emp, new)])})
        )
        assert result.ok

    def test_enforce_mode_raises(self, small_paper_db):
        system = AssertionSystem(
            small_paper_db,
            [DEPT_CONSTRAINT],
            paper_transactions(),
            enforce=True,
        )
        with pytest.raises(AssertionViolation) as info:
            system.engine.execute(dept_budget_txn(small_paper_db, "dept00001", 1))
        assert info.value.assertion == "DeptConstraint"
        assert ("dept00001",) in info.value.rows

    def test_would_violate_rolls_back(self, small_paper_db):
        """An enforcing system rejects a transaction that would violate an
        assertion, and the rejection changes no relation and no view."""
        system = AssertionSystem(
            small_paper_db, [DEPT_CONSTRAINT], paper_transactions(), enforce=True
        )
        dept = small_paper_db.relation("Dept").contents()
        txn = dept_budget_txn(small_paper_db, "dept00002", 1)
        with pytest.raises(AssertionViolation):
            system.engine.execute(txn)
        # State (and views) rolled back: still satisfied and consistent.
        assert small_paper_db.relation("Dept").contents() == dept
        assert system.all_satisfied()
        system.maintainer.verify()

    def test_would_violate_false_keeps_txn(self, small_paper_db):
        """An enforcing system commits a transaction that violates nothing."""
        system = AssertionSystem(
            small_paper_db, [DEPT_CONSTRAINT], paper_transactions(), enforce=True
        )
        txn = dept_budget_txn(small_paper_db, "dept00003", 100_000)
        result = system.engine.execute(txn)
        assert result.committed and result.ok
        budget = next(
            r
            for r in small_paper_db.relation("Dept").contents().rows()
            if r[0] == "dept00003"
        )[2]
        assert budget == 100_000
        system.maintainer.verify()

    def test_greedy_mode_works(self, small_paper_db):
        """Greedy planning starts from every assertion root, so it also
        plans a multi-root DAG."""
        for assertions, dname in (
            ([DEPT_CONSTRAINT], "dept00004"),
            ([DEPT_CONSTRAINT, HEADCOUNT_CONSTRAINT], "dept00005"),
        ):
            system = AssertionSystem(
                small_paper_db,
                assertions,
                paper_transactions(),
                exhaustive=False,
            )
            roots = {system.dag.memo.find(r) for r in system._roots.values()}
            assert len(roots) == len(assertions)
            assert roots <= system.plan.best_marking
            result = system.engine.execute(dept_budget_txn(small_paper_db, dname, 1))
            assert not result.ok
            assert (dname,) in result.new_violations["DeptConstraint"]
