"""Experiment E7 — deferred (batched) maintenance.

Runs the same 120-transaction stream (salary raises and budget changes,
skewed toward a few hot departments) under batch sizes 1, 5 and 20,
measuring page I/Os through the storage engine. Each stream commits
through ``Engine(maintainer, policy=DeferredPolicy(batch_size=b))``: the
commit that fills a batch flushes it, and a final ``engine.flush()``
commits the tail. Composition collapses repeated updates to the same
groups, so the per-transaction cost must fall as the batch grows.
"""

import random

import pytest
from conftest import emit, format_table

from repro.core.optimizer import evaluate_view_set
from repro.cost.estimates import DagEstimator
from repro.cost.model import CostConfig
from repro.cost.page_io import PageIOCostModel
from repro.dag.builder import build_dag
from repro.engine import DeferredPolicy, Engine
from repro.ivm.delta import Delta
from repro.ivm.maintainer import ViewMaintainer
from repro.obs.metrics import MetricsRegistry
from repro.storage.database import Database
from repro.storage.statistics import Catalog
from repro.workload.paperdb import (
    DEPT_SCHEMA,
    EMP_SCHEMA,
    generate_corporate_db,
    problem_dept_tree,
)
from repro.workload.transactions import Transaction, paper_transactions

N_TXNS = 120
HOT_DEPTS = 5  # updates concentrate on a few departments


def build(data):
    db = Database()
    db.create_relation("Dept", DEPT_SCHEMA, data["Dept"], indexes=[["DName"]])
    db.create_relation("Emp", EMP_SCHEMA, data["Emp"], indexes=[["DName"]])
    dag = build_dag(problem_dept_tree())
    estimator = DagEstimator(dag.memo, Catalog.from_database(db))
    cost_model = PageIOCostModel(dag.memo, estimator, CostConfig(root_group=dag.root))
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
    return db, maintainer


class LogicalState:
    """The deferred-visible state: stored contents plus queued changes.

    Transactions must be generated against what they would see, or a batch
    would contain write-write conflicts on stale rows.
    """

    def __init__(self, db):
        self.emps = {r[0]: r for r in db.relation("Emp").contents().rows()}
        self.depts = {r[0]: r for r in db.relation("Dept").contents().rows()}

    def next_txn(self, rng):
        if rng.random() < 0.7:
            hot = f"dept{rng.randrange(HOT_DEPTS):05d}"
            candidates = sorted(
                r for r in self.emps.values() if r[1] == hot
            )
            old = rng.choice(candidates)
            new = (old[0], old[1], old[2] + rng.choice([-2, 1, 3]))
            self.emps[new[0]] = new
            return Transaction(">Emp", {"Emp": Delta.modification([(old, new)])})
        name = f"dept{rng.randrange(HOT_DEPTS):05d}"
        old = self.depts[name]
        new = (old[0], old[1], old[2] + rng.choice([-7, 4, 9]))
        self.depts[name] = new
        return Transaction(">Dept", {"Dept": Delta.modification([(old, new)])})


def run_batch_size(batch_size, data):
    db, maintainer = build(data)
    engine = Engine(
        maintainer,
        policy=DeferredPolicy(batch_size=batch_size),
        metrics=MetricsRegistry(),
    )
    state = LogicalState(db)
    rng = random.Random(29)
    db.counter.reset()
    for i in range(N_TXNS):
        engine.execute(state.next_txn(rng))
    engine.flush()
    maintainer.verify()
    return db.counter.total / N_TXNS


def run_all():
    data = generate_corporate_db(200, 10, seed=41)
    return {size: run_batch_size(size, data) for size in (1, 5, 20)}


def test_deferred_maintenance(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [[str(size), f"{cost:.2f}"] for size, cost in results.items()]
    emit(format_table(
        f"E7 — deferred maintenance ({N_TXNS} hot-spot txns)",
        ["batch size", "I/Os per txn"],
        rows,
    ))
    assert results[5] < results[1]
    assert results[20] < results[5]
    # Per-transaction matches the paper's 3.5-ish figure.
    assert results[1] == pytest.approx(3.5, rel=0.25)
