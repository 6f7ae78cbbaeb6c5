"""Operating maintained views in production: batching.

**Batched maintenance** — cut a stream of SQL statements into chunks and
commit each chunk through an unstarted group committer's ``commit_batch``:
every statement derives against the ones ahead of it in its chunk, the
chunk is composed into one transaction, and the views are refreshed once
per chunk; composed deltas collapse repeated work (demonstrated on a
hot-spot stream with batch sizes 1 / 5 / 20).

Run:  python examples/operations.py
"""

from repro import (
    Catalog,
    CostConfig,
    DagEstimator,
    Engine,
    PageIOCostModel,
    build_dag,
)
from repro.core.optimizer import optimal_view_set
from repro.ivm.maintainer import ViewMaintainer
from repro.server.commit import GroupCommitter
from repro.sql.dml import StatementRider
from repro.sql.parser import parse
from repro.storage.database import Database
from repro.workload.paperdb import (
    DEPT_SCHEMA,
    EMP_SCHEMA,
    generate_corporate_db,
    problem_dept_tree,
)
from repro.workload.transactions import paper_transactions


def batched_demo() -> None:
    print("=== Batched maintenance (hot-spot salary churn) ===")
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
        committer = GroupCommitter(Engine(maintainer))
        # Hot spot: the same three employees get repeated raises.
        hot = sorted(r[0] for r in db.relation("Emp").contents().rows())[:3]
        n = 60
        riders = [
            StatementRider(
                f"raise_{i}",
                (parse(f"UPDATE Emp SET Salary = Salary + 1 WHERE EName = '{hot[i % 3]}'"),),
            )
            for i in range(n)
        ]
        before = db.counter.total
        for start in range(0, n, batch_size):
            for request in committer.commit_batch(riders[start : start + batch_size]):
                request.wait()
        io = db.counter.total - before
        maintainer.verify()
        print(f"  batch size {batch_size:2d}: "
              f"{io / n:5.2f} page I/Os per transaction")
    print()


if __name__ == "__main__":
    batched_demo()
