"""Experiment E4 — SQL-92 assertion checking cost (paper §1 / §6).

Measures the real page-I/O cost of checking the paper's DeptConstraint per
transaction, with and without the optimizer's auxiliary views, on a live
200-department database. The auxiliary view (SumOfSals) must make checking
several times cheaper — the paper's whole point: exactly 3.50 against 12.00
page I/Os per checked transaction.
"""

import random

import pytest
from conftest import emit, format_table

from repro.constraints.assertions import AssertionSystem
from repro.ivm.delta import Delta
from repro.storage.database import Database
from repro.workload.paperdb import DEPT_SCHEMA, EMP_SCHEMA, generate_corporate_db
from repro.workload.transactions import Transaction, paper_transactions

DEPT_CONSTRAINT = """
CREATE ASSERTION DeptConstraint CHECK (NOT EXISTS (
    SELECT Dept.DName FROM Emp, Dept
    WHERE Dept.DName = Emp.DName
    GROUPBY Dept.DName, Budget
    HAVING SUM(Salary) > Budget))
"""

N_TXNS = 60


def _database():
    db = Database()
    data = generate_corporate_db(200, 10, seed=31, budget_range=(800, 1200))
    db.create_relation("Dept", DEPT_SCHEMA, data["Dept"], indexes=[["DName"]])
    db.create_relation("Emp", EMP_SCHEMA, data["Emp"], indexes=[["DName"]])
    return db


def _run(system, db):
    rng = random.Random(13)
    db.counter.reset()
    violations = 0
    for i in range(N_TXNS):
        if i % 2 == 0:
            old = rng.choice(sorted(db.relation("Emp").contents().rows()))
            new = (old[0], old[1], old[2] + rng.choice([-2, 1, 3]))
            txn = Transaction(">Emp", {"Emp": Delta.modification([(old, new)])})
        else:
            old = rng.choice(sorted(db.relation("Dept").contents().rows()))
            new = (old[0], old[1], old[2] + rng.choice([-5, 4, 9]))
            txn = Transaction(">Dept", {"Dept": Delta.modification([(old, new)])})
        result = system.engine.execute(txn)
        violations += len(result.new_violations)
    return db.counter.total / N_TXNS, violations


def run_both():
    results = {}
    for label, exhaustive in (("with auxiliary views", True),):
        db = _database()
        system = AssertionSystem(
            db, [DEPT_CONSTRAINT], paper_transactions(), exhaustive=exhaustive
        )
        results[label] = _run(system, db)

    # Baseline: force the empty auxiliary set by restricting candidates.
    db = _database()
    system = AssertionSystem(
        db, [DEPT_CONSTRAINT], paper_transactions(), exhaustive=True
    )
    from repro.core.optimizer import evaluate_view_set
    from repro.ivm.maintainer import ViewMaintainer

    roots = frozenset(system.dag.memo.find(r) for r in system.roots.values())
    ev = evaluate_view_set(
        system.dag.memo, roots, system.txns, system.cost_model, system.estimator
    )
    bare = ViewMaintainer(
        db,
        system.dag,
        roots,
        system.txns,
        {name: plan.track for name, plan in ev.per_txn.items()},
        system.estimator,
        system.cost_model,
        charge_root_update=True,
    )
    bare.materialize()
    system.use_maintainer(bare)  # rebuilds the engine around the bare plan
    results["no auxiliary views"] = _run(system, db)
    return results


def test_assertion_checking_cost(benchmark):
    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    rows = [
        [label, f"{cost:.2f}", str(violations)]
        for label, (cost, violations) in results.items()
    ]
    emit(format_table(
        f"E4 — DeptConstraint checking cost (page I/Os per txn, {N_TXNS} txns)",
        ["strategy", "I/Os per txn", "violations"],
        rows,
    ))
    # Exact, like E1: the auxiliary SumOfSals is self-maintained by the
    # paper's 3-I/O read-modify-write, so any accounting drift shows here.
    assert results["with auxiliary views"][0] == 3.5
    assert results["no auxiliary views"][0] == 12.0
