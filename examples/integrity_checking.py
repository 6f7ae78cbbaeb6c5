"""SQL-92 assertion checking (the paper's headline application).

Creates the paper's DeptConstraint assertion ("a department's expense
should not exceed its budget"), lets the system pick auxiliary views for
cheap checking, and commits a stream of transactions through the
system's engine, demonstrating:

* cheap incremental checking (the assertion view is maintained, not
  re-evaluated);
* violation detection with the offending rows;
* rejection: an enforcing system refuses a violating transaction and
  rolls it back, leaving the database unchanged.

Run:  python examples/integrity_checking.py
"""

import random

from repro import Database, Delta, Transaction
from repro.constraints.assertions import AssertionSystem, AssertionViolation
from repro.workload.paperdb import DEPT_SCHEMA, EMP_SCHEMA, generate_corporate_db
from repro.workload.transactions import paper_transactions

DEPT_CONSTRAINT = """
CREATE ASSERTION DeptConstraint CHECK (NOT EXISTS (
    SELECT Dept.DName FROM Emp, Dept
    WHERE Dept.DName = Emp.DName
    GROUPBY Dept.DName, Budget
    HAVING SUM(Salary) > Budget))
"""


def corporate_db() -> Database:
    db = Database()
    # Budgets are drawn above 10 × the maximum salary so the constraint
    # holds initially — assertions guard a consistent database.
    data = generate_corporate_db(200, 10, seed=42, budget_range=(800, 1200))
    db.create_relation("Dept", DEPT_SCHEMA, data["Dept"], indexes=[["DName"]])
    db.create_relation("Emp", EMP_SCHEMA, data["Emp"], indexes=[["DName"]])
    return db


def budget_change(dept: tuple, budget: int) -> Transaction:
    new = (dept[0], dept[1], budget)
    return Transaction(">Dept", {"Dept": Delta.modification([(dept, new)])})


def main() -> None:
    db = corporate_db()
    system = AssertionSystem(db, [DEPT_CONSTRAINT], paper_transactions())
    print("Assertion installed. Initially satisfied:", system.all_satisfied())
    extras = system.plan.additional_views()
    print("Auxiliary views chosen for cheap checking:")
    for gid in sorted(extras):
        print(f"  N{gid}: {system.dag.memo.group(gid).schema}")
    print()

    rng = random.Random(7)
    db.counter.reset()

    # A stream of benign salary raises: checking stays cheap.
    for _ in range(50):
        old = rng.choice(sorted(db.relation("Emp").contents().rows()))
        new = (old[0], old[1], old[2] + 1)
        result = system.engine.execute(
            Transaction(">Emp", {"Emp": Delta.modification([(old, new)])})
        )
        assert result.ok
    print(f"50 benign raises processed: {db.counter.total / 50:.2f} page I/Os "
          "per checked transaction")

    # A budget cut that breaks the constraint: reported, and committed.
    dept = sorted(db.relation("Dept").contents().rows())[0]
    result = system.engine.execute(budget_change(dept, 1))
    print(f"\nBudget of {dept[0]} slashed to 1:")
    print("  new violations:", dict(result.new_violations))

    # Restore it; violation clears.
    slashed = (dept[0], dept[1], 1)
    result = system.engine.execute(budget_change(slashed, dept[2]))
    print("  restored; cleared:", dict(result.cleared_violations))
    print("  all satisfied again:", system.all_satisfied())

    # Enforcement: an enforcing system over its own database rejects the
    # same kind of cut. (Two systems over one database would both name
    # their views _view_N.)
    guarded_db = corporate_db()
    guarded = AssertionSystem(
        guarded_db, [DEPT_CONSTRAINT], paper_transactions(), enforce=True
    )
    dept = sorted(guarded_db.relation("Dept").contents().rows())[0]
    try:
        guarded.engine.execute(budget_change(dept, 0))
    except AssertionViolation as exc:
        print(f"\nTransaction zeroing {dept[0]}'s budget REJECTED "
              f"(violates {exc.assertion}); database unchanged.")
    else:
        raise AssertionError("the enforcing system committed a violation")
    current = next(
        r for r in guarded_db.relation("Dept").contents().rows() if r[0] == dept[0]
    )
    print(f"  {dept[0]} budget is still {current[2]}")
    assert current == dept and guarded.all_satisfied()


if __name__ == "__main__":
    main()
