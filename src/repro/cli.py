"""Command-line interface: ``python -m repro``.

Subcommands:

* ``demo`` — the paper's running example end to end (optimize + execute);
* ``advise`` — read view/assertion DDL and a workload description, print a
  materialization advisor report;
* ``run`` — generate a paper-workload transaction stream and commit it
  through the transactional engine under a chosen maintenance policy
  (``immediate`` or ``enforce``), reporting throughput,
  page I/O, and assertion outcomes;
* ``shell`` — interactive SQL shell over a maintained database.

The ``advise`` workload file is a small text format, one directive per
line::

    table Emp rows=10000 distinct=EName:10000,DName:1000,Salary:40 key=EName
    table Dept rows=1000 distinct=DName:1000,MName:1000,Budget:200 key=DName
    txn >Emp weight=1 modify=Emp:1:Salary
    txn Load weight=2 insert=Orders:10 delete=Orders:5

Types are declared in the DDL file via the schemas block (see
examples/advisor_input/ for a complete input pair).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.algebra.schema import Schema
from repro.algebra.types import DataType
from repro.core.heuristics import greedy_view_set
from repro.core.optimizer import optimal_view_set
from repro.core.report import render_report
from repro.cost.estimates import DagEstimator
from repro.cost.model import CostConfig
from repro.cost.page_io import PageIOCostModel
from repro.dag.builder import build_dag
from repro.shell import POLICIES, corporate_world
from repro.sql.translate import translate_sql
from repro.storage.statistics import Catalog, TableStats
from repro.workload.transactions import TransactionType, UpdateSpec

_TYPES = {
    "int": DataType.INT,
    "float": DataType.FLOAT,
    "string": DataType.STRING,
    "bool": DataType.BOOL,
}


class WorkloadParseError(Exception):
    """Raised for malformed workload description files."""


def parse_workload(text: str) -> tuple[dict[str, Schema], Catalog, list[TransactionType]]:
    """Parse the table/txn directive format documented in the module
    docstring. Column types default to ``string`` for key-looking names and
    ``int`` otherwise unless annotated ``name:type:distinct``."""
    schemas: dict[str, Schema] = {}
    catalog = Catalog()
    txns: list[TransactionType] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "table":
            name = parts[1]
            options = dict(p.split("=", 1) for p in parts[2:])
            rows = float(options.get("rows", "1000"))
            distinct: dict[str, float] = {}
            columns = []
            for spec in options.get("columns", options.get("distinct", "")).split(","):
                if not spec:
                    continue
                fields = spec.split(":")
                col = fields[0]
                dtype = _TYPES.get(fields[1], None) if len(fields) >= 3 else None
                count = float(fields[-1])
                if dtype is None:
                    dtype = DataType.STRING if count == rows else DataType.INT
                columns.append((col, dtype))
                distinct[col] = count
            if not columns:
                raise WorkloadParseError(f"table {name!r} declares no columns")
            keys = []
            if "key" in options:
                keys = [options["key"].split(",")]
            schemas[name] = Schema.of(*columns, keys=keys)
            catalog.set(name, TableStats(rows, distinct))
        elif kind == "txn":
            name = parts[1]
            options = [p for p in parts[2:]]
            weight = 1.0
            updates: dict[str, UpdateSpec] = {}
            for option in options:
                key, value = option.split("=", 1)
                if key == "weight":
                    weight = float(value)
                    continue
                fields = value.split(":")
                rel = fields[0]
                count = float(fields[1]) if len(fields) > 1 else 1.0
                current = updates.get(rel, UpdateSpec())
                if key == "modify":
                    cols = frozenset(fields[2].split(",")) if len(fields) > 2 else frozenset()
                    if not cols:
                        raise WorkloadParseError(
                            f"txn {name!r}: modify needs columns (rel:count:cols)"
                        )
                    updates[rel] = UpdateSpec(
                        current.inserts, current.deletes, count, cols
                    )
                elif key == "insert":
                    updates[rel] = UpdateSpec(
                        count, current.deletes, current.modifies,
                        current.modified_columns,
                    )
                elif key == "delete":
                    updates[rel] = UpdateSpec(
                        current.inserts, count, current.modifies,
                        current.modified_columns,
                    )
                else:
                    raise WorkloadParseError(f"unknown txn option {key!r}")
            txns.append(TransactionType(name, updates, weight))
        else:
            raise WorkloadParseError(f"unknown directive {kind!r}")
    if not schemas:
        raise WorkloadParseError("no tables declared")
    if not txns:
        raise WorkloadParseError("no transaction types declared")
    return schemas, catalog, txns


def advise(
    ddl: str,
    workload: str,
    exhaustive: bool = True,
    charge_root: bool = False,
    save_path: str | None = None,
) -> str:
    """Run the advisor on DDL + workload text; returns the report.

    ``save_path`` persists the chosen plan as JSON (reload it with
    :func:`repro.core.serialize.load_plan` against a rebuilt DAG)."""
    schemas, catalog, txns = parse_workload(workload)
    view = translate_sql(ddl, schemas)
    dag = build_dag(view.expr)
    estimator = DagEstimator(dag.memo, catalog)
    cost_model = PageIOCostModel(
        dag.memo,
        estimator,
        CostConfig(charge_root_update=charge_root, root_group=dag.root),
    )
    if exhaustive:
        result = optimal_view_set(dag, txns, cost_model, estimator)
    else:
        result = greedy_view_set(dag, txns, cost_model, estimator)
    if save_path is not None:
        from repro.core.serialize import save_plan

        save_plan(dag, result, save_path)
    header = f"View {view.name!r}" + (" (assertion)" if view.is_assertion else "")
    return header + "\n" + render_report(dag, result, txns, cost_model, estimator)


def run_stream(
    policy: str = "immediate",
    n_txns: int = 100,
    n_depts: int = 50,
    emps_per_dept: int = 10,
    seed: int = 0,
    trace_path: str | None = None,
    durable_path: str | None = None,
    clients: int = 0,
    max_batch: int = 32,
) -> str:
    """Commit a random paper-workload stream through the engine.

    Builds :func:`~repro.shell.corporate_world` under the requested
    maintenance policy, drives ``n_txns`` random >Emp / >Dept
    modifications through :func:`~repro.workload.runner.run_transactions`,
    and returns the report text.

    ``trace_path`` attaches a :class:`~repro.obs.trace.Tracer` for the run
    and writes the span tree as JSON to that path. The report text is
    byte-identical with and without tracing (CI asserts this) — tracing
    observes the commits, it never changes them.

    ``durable_path`` logs every commit to the write-ahead log at that
    directory (``run --durable DIR``). The stream report is unchanged —
    the paper's simulated accounting is durable-neutral — and a trailing
    ``durable:`` line reports the actual log traffic.

    ``clients`` ≥ 2 splits the stream across that many concurrent client
    threads over a shared group committer
    (:func:`~repro.workload.runner.run_concurrent_transactions`): each
    client updates its own slice of the departments, batches of up to
    ``max_batch`` riders are composed and maintained once per batch, and
    the report counts the drained batches.
    """
    import random

    from repro.workload.generators import random_modify
    from repro.workload.runner import run_transactions

    db, _system, engine = corporate_world(
        policy,
        n_depts=n_depts,
        emps_per_dept=emps_per_dept,
        seed=seed,
        durable_path=durable_path,
    )
    rng = random.Random(seed)
    column = {"Emp": "Salary", "Dept": "Budget"}

    def stream():
        # Every commit is applied (or rolled back) before the next
        # transaction is drawn, so the generator reads live state.
        for _ in range(n_txns):
            rel = "Emp" if rng.random() < 0.5 else "Dept"
            yield random_modify(db, f">{rel}", rel, column[rel], rng)

    tracer = None
    if trace_path is not None:
        from repro.obs.trace import Tracer

        tracer = Tracer()
        engine.set_tracer(tracer)
    if clients >= 2:
        from repro.workload.runner import run_concurrent_transactions

        streams = _client_streams(db, n_txns, clients, seed, column)
        report, _ = run_concurrent_transactions(
            engine, streams, max_batch=max_batch
        )
    else:
        report = run_transactions(engine, stream())
    if tracer is not None:
        import json

        from repro.obs.trace import trace_to_json

        with open(trace_path, "w") as f:
            json.dump(trace_to_json(tracer), f, indent=2)
            f.write("\n")
    lines = [
        f"policy={policy} n_txns={n_txns} seed={seed}",
        str(report),
    ]
    for name, count in sorted(report.new_violations.items()):
        lines.append(f"  {name}: {count} violating rows entered")
    for name, count in sorted(report.cleared_violations.items()):
        lines.append(f"  {name}: {count} violating rows cleared")
    if clients >= 2:
        lines.insert(
            1,
            f"clients: {clients} (max_batch {max_batch}, "
            f"{report.batches} batches)",
        )
    if db.durable is not None:
        lines.append(f"durable: {db.durable.stats.describe()}")
        db.close()
    return "\n".join(lines)


def _client_streams(db, n_txns: int, clients: int, seed: int, column: dict):
    """Pre-built per-client transaction lists over disjoint department
    slices (client ``i`` owns departments ``i mod clients``), so
    concurrent clients never touch the same rows and every group-commit
    interleaving composes to the same net state. Rows are tracked
    logically per client — commits may still be riding the queue when the
    next transaction is generated, so live contents can't be read."""
    import random

    from repro.ivm.delta import Delta
    from repro.workload.transactions import Transaction

    dept_rows = sorted(db.relation("Dept").contents().rows())
    emp_rows = sorted(db.relation("Emp").contents().rows())
    emp_dname = db.relation("Emp").schema.index_of("DName")
    streams = []
    for i in range(clients):
        my_depts = [d for j, d in enumerate(dept_rows) if j % clients == i]
        names = {d[0] for d in my_depts}
        logical = {
            "Dept": my_depts,
            "Emp": [e for e in emp_rows if e[emp_dname] in names],
        }
        count = n_txns // clients + (1 if i < n_txns % clients else 0)
        rng = random.Random(seed * 7919 + i)
        txns = []
        for _ in range(count):
            rel = "Emp" if rng.random() < 0.5 else "Dept"
            rows = logical[rel]
            if not rows:
                rel = "Dept" if rel == "Emp" else "Emp"
                rows = logical[rel]
            k = rng.randrange(len(rows))
            old = rows[k]
            idx = db.relation(rel).schema.index_of(column[rel])
            change = rng.randint(-10, 10) or 1
            new = old[:idx] + (old[idx] + change,) + old[idx + 1 :]
            rows[k] = new
            txns.append(Transaction(f">{rel}", {rel: Delta.modification([(old, new)])}))
        streams.append(txns)
    return streams


def _cmd_run(args: argparse.Namespace) -> int:
    print(
        run_stream(
            policy=args.policy,
            n_txns=args.n_txns,
            seed=args.seed,
            trace_path=args.trace,
            durable_path=args.durable,
            clients=args.clients,
            max_batch=args.max_batch,
        )
    )
    if args.trace:
        print(f"trace written to {args.trace}", file=sys.stderr)
    return 0


def _cmd_demo(_args: argparse.Namespace) -> int:
    from repro.workload.paperdb import DEPT_SCHEMA, EMP_SCHEMA
    from repro.workload.transactions import paper_transactions

    ddl = """
    CREATE VIEW ProblemDept (DName) AS
    SELECT Dept.DName FROM Emp, Dept
    WHERE Dept.DName = Emp.DName
    GROUPBY Dept.DName, Budget
    HAVING SUM(Salary) > Budget
    """
    view = translate_sql(ddl, {"Dept": DEPT_SCHEMA, "Emp": EMP_SCHEMA})
    dag = build_dag(view.expr)
    estimator = DagEstimator(dag.memo, Catalog.paper_catalog())
    cost_model = PageIOCostModel(
        dag.memo, estimator, CostConfig(root_group=dag.root)
    )
    txns = paper_transactions()
    result = optimal_view_set(dag, txns, cost_model, estimator)
    print(render_report(dag, result, txns, cost_model, estimator))
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    with open(args.view) as f:
        ddl = f.read()
    with open(args.workload) as f:
        workload = f.read()
    try:
        print(
            advise(
                ddl,
                workload,
                exhaustive=not args.greedy,
                charge_root=args.charge_root,
                save_path=args.save,
            )
        )
    except WorkloadParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_shell(args: argparse.Namespace) -> int:  # pragma: no cover - interactive
    from repro.shell import run_repl

    return run_repl(durable_path=args.durable)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server.server import run_server

    return run_server(
        host=args.host,
        port=args.port,
        policy=args.policy,
        durable_path=args.durable,
        wal_sync=args.wal_sync,
        max_batch=args.max_batch,
        seed=args.seed,
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Materialized-view maintenance advisor (SIGMOD 1996 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    demo = sub.add_parser("demo", help="run the paper's running example")
    demo.set_defaults(func=_cmd_demo)
    adv = sub.add_parser("advise", help="advise on a view + workload")
    adv.add_argument("view", help="file with one CREATE VIEW / CREATE ASSERTION")
    adv.add_argument("workload", help="workload description file")
    adv.add_argument("--greedy", action="store_true", help="greedy search")
    adv.add_argument(
        "--charge-root", action="store_true",
        help="include the top-level view's own update cost",
    )
    adv.add_argument(
        "--save", metavar="PLAN.json", default=None,
        help="persist the chosen plan as JSON for later reuse",
    )
    adv.set_defaults(func=_cmd_advise)
    run = sub.add_parser(
        "run", help="commit a random paper workload through the engine"
    )
    run.add_argument(
        "--policy", choices=list(POLICIES),
        default="immediate", help="maintenance policy for the engine",
    )
    run.add_argument("--n-txns", type=int, default=100, help="stream length")
    run.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    run.add_argument(
        "--trace", metavar="OUT.json", default=None,
        help="record a span trace of the run and write it as JSON",
    )
    run.add_argument(
        "--durable", metavar="DIR", default=None,
        help="write-ahead log at DIR (recovers a previous run)",
    )
    run.add_argument(
        "--clients", type=int, default=0, metavar="N",
        help="drive the stream from N concurrent clients over a group committer",
    )
    run.add_argument(
        "--max-batch", type=int, default=32,
        help="group-commit batch cap for --clients",
    )
    run.set_defaults(func=_cmd_run)
    shell = sub.add_parser(
        "shell", help="interactive SQL shell over a maintained database"
    )
    shell.add_argument(
        "--durable", metavar="DIR", default=None,
        help="durable session: write-ahead log at DIR, \\checkpoint enabled",
    )
    shell.set_defaults(func=_cmd_shell)
    serve = sub.add_parser(
        "serve", help="socket server: many clients, one group-committed engine"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=4957,
        help="TCP port (0 binds an ephemeral port, printed on startup)",
    )
    serve.add_argument(
        "--policy", choices=list(POLICIES), default="immediate",
        help="maintenance policy for the shared engine",
    )
    serve.add_argument(
        "--durable", metavar="DIR", default=None,
        help="write-ahead log at DIR (one fsync per group batch)",
    )
    serve.add_argument(
        "--wal-sync", choices=("normal", "full"), default=None,
        help="WAL sync mode for --durable",
    )
    serve.add_argument(
        "--max-batch", type=int, default=32, help="group-commit batch cap"
    )
    serve.add_argument("--seed", type=int, default=0, help="corporate data seed")
    serve.set_defaults(func=_cmd_serve)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
