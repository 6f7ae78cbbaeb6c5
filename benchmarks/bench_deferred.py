"""Experiment E7 — batched maintenance.

Runs the same 120-transaction stream (salary raises and budget changes,
skewed toward a few hot departments) under batch sizes 1, 5 and 20,
measuring page I/Os through the storage engine. Each transaction is one
SQL ``UPDATE`` statement rider; the stream is cut into chunks of the batch
size and each chunk goes through an unstarted group committer's
``commit_batch``, which derives every rider against the net delta of the
riders ahead of it, composes the chunk and commits it once. Composition
collapses repeated updates to the same groups, so the per-transaction cost
must fall as the batch grows.
"""

import random

from conftest import emit, format_table

from repro.core.optimizer import evaluate_view_set
from repro.cost.estimates import DagEstimator
from repro.cost.model import CostConfig
from repro.cost.page_io import PageIOCostModel
from repro.dag.builder import build_dag
from repro.engine import Engine
from repro.ivm.maintainer import ViewMaintainer
from repro.server.commit import GroupCommitter
from repro.sql.dml import StatementRider
from repro.sql.parser import parse
from repro.storage.database import Database
from repro.storage.statistics import Catalog
from repro.workload.paperdb import (
    DEPT_SCHEMA,
    EMP_SCHEMA,
    generate_corporate_db,
    problem_dept_tree,
)
from repro.workload.transactions import paper_transactions

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


def _increment(table, column, key_column, key, amount):
    sign = "+" if amount >= 0 else "-"
    return parse(
        f"UPDATE {table} SET {column} = {column} {sign} {abs(amount)} "
        f"WHERE {key_column} = '{key}'"
    )


def hot_spot_stream(db, rng):
    """The 120 statements: 70 % raise an employee of a hot department,
    the rest change a hot department's budget. Each names its row by key,
    so the stream needs no mirror of the rows — a rider derives against
    the riders ahead of it in its batch."""
    names = {}
    for row in sorted(db.relation("Emp").contents().rows()):
        names.setdefault(row[1], []).append(row[0])
    for i in range(N_TXNS):
        if rng.random() < 0.7:
            name = rng.choice(names[f"dept{rng.randrange(HOT_DEPTS):05d}"])
            yield StatementRider(
                f">Emp_{i}",
                (_increment("Emp", "Salary", "EName", name, rng.choice([-2, 1, 3])),),
            )
        else:
            dept = f"dept{rng.randrange(HOT_DEPTS):05d}"
            yield StatementRider(
                f">Dept_{i}",
                (_increment("Dept", "Budget", "DName", dept, rng.choice([-7, 4, 9])),),
            )


def run_batch_size(batch_size, data):
    """Total page I/Os of the stream at ``batch_size``, and the maintainer
    plan cache's (hits, misses): every commit, one rider's or a composed
    batch's, is planned from its data through that cache."""
    db, maintainer = build(data)
    committer = GroupCommitter(Engine(maintainer))
    riders = list(hot_spot_stream(db, random.Random(29)))
    db.counter.reset()
    for start in range(0, N_TXNS, batch_size):
        for request in committer.commit_batch(riders[start : start + batch_size]):
            request.wait()
    maintainer.verify()
    plans = maintainer.plan_cache.stats
    return db.counter.total, (plans.hits, plans.misses)


def run_all():
    data = generate_corporate_db(200, 10, seed=41)
    return {size: run_batch_size(size, data) for size in (1, 5, 20)}


def test_deferred_maintenance(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        [str(size), f"{pages / N_TXNS:.2f}", f"{hits}/{misses}"]
        for size, (pages, (hits, misses)) in results.items()
    ]
    emit(format_table(
        f"E7 — batched maintenance ({N_TXNS} hot-spot txns)",
        ["batch size", "I/Os per txn", "plan hits/misses"],
        rows,
    ))
    # Composition collapses repeated updates to the same groups: the
    # stream's page I/Os fall as the batch grows, and are pinned exactly.
    assert {size: pages for size, (pages, _) in results.items()} == {1: 501, 5: 388, 20: 192}
    # One plan per commit shape (a raise, a budget change, or both).
    assert {size: plans for size, (_, plans) in results.items()} == {
        1: (118, 2), 5: (22, 2), 20: (5, 1),
    }
