"""Operating maintained views in production: batching.

**Deferred maintenance** — commit through the transactional engine under
a ``DeferredPolicy``: transactions queue and views refresh once per batch;
composed deltas collapse repeated work (demonstrated on a hot-spot stream
with batch sizes 1 / 5 / 20).

Run:  python examples/operations.py
"""

from repro import (
    Catalog,
    CostConfig,
    DagEstimator,
    DeferredPolicy,
    Delta,
    Engine,
    PageIOCostModel,
    Transaction,
    build_dag,
)
from repro.core.optimizer import optimal_view_set
from repro.ivm.maintainer import ViewMaintainer
from repro.storage.database import Database
from repro.workload.paperdb import (
    DEPT_SCHEMA,
    EMP_SCHEMA,
    generate_corporate_db,
    problem_dept_tree,
)
from repro.workload.transactions import paper_transactions


def deferred_demo() -> None:
    print("=== Deferred maintenance (hot-spot salary churn) ===")
    data = generate_corporate_db(100, 10, seed=5)
    for batch_size in (1, 5, 20):
        db = Database()
        db.create_relation("Dept", DEPT_SCHEMA, data["Dept"], indexes=[["DName"]])
        db.create_relation("Emp", EMP_SCHEMA, data["Emp"], indexes=[["DName"]])
        dag = build_dag(problem_dept_tree())
        estimator = DagEstimator(dag.memo, Catalog.from_database(db))
        cost_model = PageIOCostModel(
            dag.memo, estimator, CostConfig(root_group=dag.root)
        )
        txns = paper_transactions()
        result = optimal_view_set(dag, txns, cost_model, estimator)
        maintainer = ViewMaintainer(
            db, dag, result.best_marking, txns,
            {n: p.track for n, p in result.best.per_txn.items()},
            estimator, cost_model,
        )
        maintainer.materialize()
        engine = Engine(maintainer, policy=DeferredPolicy(batch_size=batch_size))
        # Hot spot: the same three employees get repeated raises.
        emps = {r[0]: r for r in db.relation("Emp").contents().rows()}
        hot = sorted(emps)[:3]
        n = 60
        io = 0
        for i in range(n):
            name = hot[i % 3]
            old = emps[name]
            new = (old[0], old[1], old[2] + 1)
            emps[name] = new
            result = engine.execute(
                Transaction(">Emp", {"Emp": Delta.modification([(old, new)])})
            )
            io += result.io.total
        tail = engine.flush()
        if tail is not None:
            io += tail.io.total
        maintainer.verify()
        print(f"  batch size {batch_size:2d}: "
              f"{io / n:5.2f} page I/Os per transaction")
    print()


if __name__ == "__main__":
    deferred_demo()
