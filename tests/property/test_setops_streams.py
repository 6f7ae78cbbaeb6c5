"""Property-based tests: random streams against set-operator views.

Complements tests/integration/test_setops_views.py with hypothesis-driven
streams and markings over DISTINCT / UNION ALL / EXCEPT ALL views.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

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

POOL = [f"d{i}" for i in range(4)]


def _views():
    return {
        "distinct": project_columns(emp_scan(), ["DName"], dedup=True),
        "dedup": project_columns(
            project_columns(emp_scan(), ["DName"]), ["DName"], dedup=True
        ),
        "union": Union(
            project_columns(emp_scan(), ["DName"]),
            project_columns(dept_scan(), ["DName"]),
        ),
        "except": Difference(
            project_columns(dept_scan(), ["DName"]),
            project_columns(emp_scan(), ["DName"]),
        ),
    }


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    view_name=st.sampled_from(sorted(_views())),
    mark_all=st.booleans(),
    kinds=st.lists(
        st.sampled_from([t.name for t in TXNS]), min_size=1, max_size=8
    ),
)
def test_setop_views_random_streams(seed, view_name, mark_all, kinds):
    rng = random.Random(seed)
    db = Database()
    db.create_relation(
        "Dept",
        DEPT_SCHEMA,
        [(n, "m", 100) for n in POOL[: rng.randint(1, 3)]],
        indexes=[["DName"]],
    )
    db.create_relation(
        "Emp",
        EMP_SCHEMA,
        [
            (f"e{i}", rng.choice(POOL), rng.randint(10, 90))
            for i in range(rng.randint(0, 6))
        ],
        indexes=[["DName"]],
    )
    view = _views()[view_name]
    dag = build_dag(view)
    estimator = DagEstimator(dag.memo, Catalog.from_database(db))
    cost_model = PageIOCostModel(dag.memo, estimator, CostConfig(root_group=dag.root))
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
    next_id = 100
    for kind in kinds:
        emps = sorted(db.relation("Emp").contents().rows())
        depts = sorted(db.relation("Dept").contents().rows())
        if kind == ">EmpDept" and emps:
            old = rng.choice(emps)
            txn = Transaction(
                kind,
                {"Emp": Delta.modification([(old, (old[0], rng.choice(POOL), old[2]))])},
            )
        elif kind == "EmpIns":
            txn = Transaction(
                kind, {"Emp": Delta.insertion([(f"n{next_id}", rng.choice(POOL), 50)])}
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
