"""Integration: maintained views built from DISTINCT, UNION ALL, EXCEPT ALL.

These exercise the executor's dedup / union / difference propagation paths
(old-count fetches, 0↔1 transitions, monus clamping) end to end against
stored data, with verification after every transaction.
"""

import random

import pytest

from repro.algebra.operators import (
    Difference,
    Union,
    project_columns,
)
from repro.core.optimizer import evaluate_view_set
from repro.cost.estimates import DagEstimator
from repro.cost.model import CostConfig
from repro.cost.page_io import PageIOCostModel
from repro.dag.builder import build_dag
from repro.ivm.delta import Delta
from repro.ivm.maintainer import ViewMaintainer
from repro.storage.database import Database
from repro.storage.statistics import Catalog
from repro.workload.paperdb import DEPT_SCHEMA, EMP_SCHEMA, dept_scan, emp_scan
from repro.workload.transactions import Transaction, TransactionType, UpdateSpec

TXNS = (
    TransactionType(
        ">EmpDept",
        {"Emp": UpdateSpec(modifies=1, modified_columns=frozenset({"DName"}))},
    ),
    TransactionType("EmpIns", {"Emp": UpdateSpec(inserts=1)}),
    TransactionType("EmpDel", {"Emp": UpdateSpec(deletes=1)}),
    TransactionType("DeptIns", {"Dept": UpdateSpec(inserts=1)}),
    TransactionType("DeptDel", {"Dept": UpdateSpec(deletes=1)}),
)

POOL = [f"dept{i:02d}" for i in range(5)]


def small_db(seed):
    rng = random.Random(seed)
    db = Database()
    depts = [(n, "m", 100) for n in POOL[:3]]
    emps = [
        (f"e{i}", rng.choice(POOL), rng.randint(10, 90)) for i in range(6)
    ]
    db.create_relation("Dept", DEPT_SCHEMA, depts, indexes=[["DName"]])
    db.create_relation("Emp", EMP_SCHEMA, emps, indexes=[["DName"]])
    return db, rng


def build_maintainer(db, view, mark_all=False):
    dag = build_dag(view)
    estimator = DagEstimator(dag.memo, Catalog.from_database(db))
    cost_model = PageIOCostModel(
        dag.memo, estimator, CostConfig(root_group=dag.root)
    )
    marking = {dag.root}
    if mark_all:
        marking.update(dag.memo.find(g) for g in dag.candidate_groups())
    ev = evaluate_view_set(dag.memo, frozenset(marking), TXNS, cost_model, estimator)
    maintainer = ViewMaintainer(
        db,
        dag,
        marking,
        TXNS,
        {name: plan.track for name, plan in ev.per_txn.items()},
        estimator,
        cost_model,
    )
    maintainer.materialize()
    return maintainer


def run_stream(db, rng, maintainer, steps=14):
    next_id = 1000
    for step in range(steps):
        emps = sorted(db.relation("Emp").contents().rows())
        depts = sorted(db.relation("Dept").contents().rows())
        kind = rng.choice(TXNS).name
        if kind == ">EmpDept" and emps:
            old = rng.choice(emps)
            txn = Transaction(
                kind,
                {"Emp": Delta.modification([(old, (old[0], rng.choice(POOL), old[2]))])},
            )
        elif kind == "EmpIns":
            txn = Transaction(
                kind,
                {"Emp": Delta.insertion([(f"n{next_id}", rng.choice(POOL), 50)])},
            )
            next_id += 1
        elif kind == "EmpDel" and emps:
            txn = Transaction(kind, {"Emp": Delta.deletion([rng.choice(emps)])})
        elif kind == "DeptIns":
            free = [d for d in POOL if d not in {x[0] for x in depts}]
            if not free:
                continue
            txn = Transaction(kind, {"Dept": Delta.insertion([(free[0], "m", 100)])})
        elif kind == "DeptDel" and depts:
            txn = Transaction(kind, {"Dept": Delta.deletion([rng.choice(depts)])})
        else:
            continue
        maintainer.apply(txn)
        maintainer.verify()


@pytest.mark.parametrize("mark_all", [False, True])
class TestSetOperatorViews:
    def test_distinct_projection_view(self, mark_all):
        db, rng = small_db(1)
        view = project_columns(emp_scan(), ["DName"], dedup=True)
        maintainer = build_maintainer(db, view, mark_all)
        run_stream(db, rng, maintainer)

    def test_union_all_view(self, mark_all):
        db, rng = small_db(3)
        view = Union(
            project_columns(emp_scan(), ["DName"]),
            project_columns(dept_scan(), ["DName"]),
        )
        maintainer = build_maintainer(db, view, mark_all)
        run_stream(db, rng, maintainer)

    def test_except_all_view(self, mark_all):
        """Departments minus employee departments (EXCEPT ALL)."""
        db, rng = small_db(4)
        view = Difference(
            project_columns(dept_scan(), ["DName"]),
            project_columns(emp_scan(), ["DName"]),
        )
        maintainer = build_maintainer(db, view, mark_all)
        run_stream(db, rng, maintainer)

    def test_distinct_union_composition(self, mark_all):
        db, rng = small_db(5)
        view = project_columns(
            Union(
                project_columns(emp_scan(), ["DName"]),
                project_columns(dept_scan(), ["DName"]),
            ),
            ["DName"],
            dedup=True,
        )
        maintainer = build_maintainer(db, view, mark_all)
        run_stream(db, rng, maintainer)
