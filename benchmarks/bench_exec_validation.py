"""Experiment E1 — empirical validation: measured vs estimated page I/Os.

Runs the paper's transaction mix against a real stored 1000-department /
10000-employee database under each Section 3.6 view set, measuring actual
page I/Os through the storage engine. The seeded stream must measure
exactly the analytic table: {} = 12, {N3} = 3.5, {N4} = 24 I/Os per
transaction, a 3.4× win for the right auxiliary view and a 2× loss for
the wrong one.

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_exec_validation.py
"""

import random
import time

from conftest import emit, format_table

from repro.core.optimizer import evaluate_view_set
from repro.cost.estimates import DagEstimator
from repro.cost.model import CostConfig
from repro.cost.page_io import PageIOCostModel
from repro.engine import Engine
from repro.ivm.delta import Delta
from repro.ivm.maintainer import ViewMaintainer
from repro.storage.database import Database
from repro.storage.statistics import Catalog
from repro.workload.paperdb import DEPT_SCHEMA, EMP_SCHEMA, generate_corporate_db
from repro.workload.transactions import Transaction

N_TXNS = 100
# Page I/Os per transaction under each view set (paper §3.6).
EXPECTED_IO = {"{}": 12.0, "{N3}": 3.5, "{N4}": 24.0}


def run_viewset(paper_dag, paper_txns, marking_extra, paper_groups, data):
    db = Database()
    db.create_relation("Dept", DEPT_SCHEMA, data["Dept"], indexes=[["DName"]])
    db.create_relation("Emp", EMP_SCHEMA, data["Emp"], indexes=[["DName"]])
    estimator = DagEstimator(paper_dag.memo, Catalog.from_database(db))
    cost_model = PageIOCostModel(
        paper_dag.memo,
        estimator,
        CostConfig(charge_root_update=False, root_group=paper_dag.root),
    )
    marking = frozenset(
        {paper_dag.root, *(paper_groups[n] for n in marking_extra)}
    )
    ev = evaluate_view_set(
        paper_dag.memo, marking, paper_txns, cost_model, estimator
    )
    maintainer = ViewMaintainer(
        db,
        paper_dag,
        marking,
        paper_txns,
        {name: plan.track for name, plan in ev.per_txn.items()},
        estimator,
        cost_model,
    )
    maintainer.materialize()
    engine = Engine(maintainer)
    rng = random.Random(17)
    io_total = 0
    elapsed = 0.0
    for i in range(N_TXNS):
        if i % 2 == 0:
            old = rng.choice(sorted(db.relation("Emp").contents().rows()))
            new = (old[0], old[1], old[2] + rng.choice([-4, 3, 7]))
            txn = Transaction(">Emp", {"Emp": Delta.modification([(old, new)])})
        else:
            old = rng.choice(sorted(db.relation("Dept").contents().rows()))
            new = (old[0], old[1], old[2] + rng.choice([-11, 6, 14]))
            txn = Transaction(">Dept", {"Dept": Delta.modification([(old, new)])})
        started = time.perf_counter()
        result = engine.execute(txn)
        elapsed += time.perf_counter() - started
        io_total += result.io.total
    maintainer.verify()
    return io_total / N_TXNS, ev.weighted_cost, N_TXNS / elapsed


def run_all(paper_dag, paper_txns, paper_groups):
    data = generate_corporate_db(1000, 10, seed=23)
    results = {}
    for label, extra in (("{}", ()), ("{N3}", ("N3",)), ("{N4}", ("N4",))):
        results[label] = run_viewset(
            paper_dag, paper_txns, extra, paper_groups, data
        )
    return results


def test_exec_validation(benchmark, paper_dag, paper_txns, paper_groups):
    results = benchmark.pedantic(
        run_all, args=(paper_dag, paper_txns, paper_groups), rounds=1, iterations=1
    )
    rows = [
        [label, f"{measured:.2f}", f"{estimated:.2f}", f"{tps:,.0f}"]
        for label, (measured, estimated, tps) in results.items()
    ]
    emit(format_table(
        f"E1 — measured vs estimated page I/Os per transaction ({N_TXNS} txns)",
        ["view set", "measured", "estimated", "txns/s"],
        rows,
    ))
    for label, (measured, estimated, _) in results.items():
        assert measured == estimated == EXPECTED_IO[label], label
