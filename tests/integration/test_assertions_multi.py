"""Integration: several assertions sharing one DAG and auxiliary views."""

import pytest

from repro.constraints.assertions import AssertionSystem
from repro.ivm.delta import Delta
from repro.workload.transactions import Transaction, paper_transactions

BUDGET_ASSERTION = """
CREATE ASSERTION DeptBudget CHECK (NOT EXISTS (
    SELECT Dept.DName FROM Emp, Dept
    WHERE Dept.DName = Emp.DName
    GROUPBY Dept.DName, Budget
    HAVING SUM(Salary) > Budget))
"""

HEADCOUNT_ASSERTION = """
CREATE ASSERTION DeptHeadcount CHECK (NOT EXISTS (
    SELECT DName FROM Emp
    GROUPBY DName
    HAVING COUNT(*) > 50))
"""


@pytest.fixture
def system(small_paper_db):
    return AssertionSystem(
        small_paper_db,
        [BUDGET_ASSERTION, HEADCOUNT_ASSERTION],
        paper_transactions(),
    )


class TestMultipleAssertions:
    def test_both_installed(self, system):
        assert set(system.assertions) == {"DeptBudget", "DeptHeadcount"}
        assert system.all_satisfied()

    def test_shared_dag(self, system):
        """Both assertions read Emp; the multi-root DAG shares the leaf and
        any common subexpressions."""
        memo = system.dag.memo
        emp = memo.leaf_group_id("Emp")
        budget_nodes = memo.descendants(system.dag.root_of("DeptBudget"))
        headcount_nodes = memo.descendants(system.dag.root_of("DeptHeadcount"))
        assert emp in budget_nodes and emp in headcount_nodes

    def test_one_violation_does_not_flag_the_other(self, system, small_paper_db):
        dept = sorted(small_paper_db.relation("Dept").contents().rows())[0]
        slashed = (dept[0], dept[1], 1)
        result = system.engine.execute(
            Transaction(">Dept", {"Dept": Delta.modification([(dept, slashed)])})
        )
        assert "DeptBudget" in result.new_violations
        assert "DeptHeadcount" not in result.new_violations

    def test_headcount_violation(self, system, small_paper_db):
        rows = [
            (f"crowd{i}", "dept00000", 1) for i in range(60)
        ]
        # Inserting one at a time through the >Emp type is not declared; use
        # a matching insert spec via the existing >Emp type's relation.
        from repro.workload.transactions import TransactionType, UpdateSpec

        result = None
        for i, row in enumerate(rows):
            result = system.engine.execute(
                Transaction(">Emp", {"Emp": Delta.insertion([row])})
            )
        assert result is not None
        assert not system.all_satisfied()
        assert ("dept00000",) in system.current_violations("DeptHeadcount")
