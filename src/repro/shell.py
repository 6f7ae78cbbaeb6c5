"""An interactive SQL shell over a maintained database.

``python -m repro shell`` loads the paper's corporate database, installs
the DeptConstraint assertion with its optimizer-chosen auxiliary views, and
accepts:

* ``SELECT …`` — evaluated against the base relations (bag semantics);
* ``INSERT / UPDATE / DELETE …`` — turned into deltas and propagated
  incrementally to every materialized view, reporting the page I/Os spent
  and any assertion violations the statement introduces or clears;
* meta commands: ``\\views`` (materialized views and their contents
  summary), ``\\plan`` (the maintenance plan), ``\\io`` (cumulative I/O),
  ``\\check`` (current violations), ``\\explain`` (the update track with
  estimated costs), ``\\profile`` (run a DML statement under EXPLAIN
  ANALYZE), ``\\metrics`` (engine metrics), ``\\help``, ``\\quit``.

:class:`ShellSession` is importable and scriptable — the REPL is a thin
loop over ``execute``. All reads and writes route through the
transactional :class:`~repro.engine.engine.Engine`, so every statement's
page I/O is attributed to it (``io_cost`` on the result).

Error surface: every statement error is rendered by its
:func:`~repro.sql.dml.error_tier` — an :class:`AssertionViolation` from an
enforcing session as ``rejected:`` (the transaction was rolled back), the
statement's own mistakes as ``error:``, and anything else as ``internal
error:``, whose traceback is logged as the ERROR event
``shell.internal_error`` (logger ``repro.shell``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

from repro.constraints.assertions import AssertionSystem
from repro.engine import Engine
from repro.sql import ast
from repro.sql.dml import dml_transaction, error_tier, translate_query
from repro.sql.parser import parse
from repro.storage.database import Database
from repro.workload.paperdb import (
    DEPT_SCHEMA,
    EMP_SCHEMA,
    generate_corporate_db,
)
from repro.workload.transactions import paper_transactions

_log = logging.getLogger("repro.shell")

DEPT_CONSTRAINT = """
CREATE ASSERTION DeptConstraint CHECK (NOT EXISTS (
    SELECT Dept.DName FROM Emp, Dept
    WHERE Dept.DName = Emp.DName
    GROUPBY Dept.DName, Budget
    HAVING SUM(Salary) > Budget))
"""

#: Maintenance policies :func:`corporate_world` accepts, in help order:
#: ``immediate`` reports assertion violations, ``enforce`` rejects them.
POLICIES = ("immediate", "enforce")


def corporate_world(
    policy: str = "immediate",
    n_depts: int = 50,
    emps_per_dept: int = 10,
    seed: int = 0,
    durable_path: str | None = None,
    wal_sync: str | None = None,
) -> tuple[Database, AssertionSystem, Engine]:
    """The paper's corporate database with DeptConstraint installed, behind
    an engine under ``policy`` — the world the shell, ``run`` and the
    server share.

    A recovered durable directory keeps its relations (the WAL replay is
    authoritative, not the seed); otherwise Dept/Emp are seeded from
    :func:`generate_corporate_db`.
    """
    if policy not in POLICIES:
        raise ValueError(
            f"unknown maintenance policy {policy!r}; expected one of {POLICIES}"
        )
    db = Database(durable_path=durable_path, wal_sync=wal_sync)
    if "Emp" not in db:
        data = generate_corporate_db(
            n_depts, emps_per_dept, seed=seed, budget_range=(800, 1200)
        )
        db.create_relation("Dept", DEPT_SCHEMA, data["Dept"], indexes=[["DName"]])
        db.create_relation("Emp", EMP_SCHEMA, data["Emp"], indexes=[["DName"]])
    system = AssertionSystem(
        db, [DEPT_CONSTRAINT], paper_transactions(), enforce=(policy == "enforce")
    )
    return db, system, system.engine


HELP = """\
SELECT ... FROM ...            query the base relations
INSERT INTO t VALUES (...)     apply DML; views maintained incrementally
UPDATE t SET c = expr WHERE …
DELETE FROM t WHERE …
\\views    materialized views        \\plan    maintenance plan
\\io       cumulative page I/O       \\check   current assertion violations
\\explain [txn]   update track with estimated I/O costs
\\profile <DML>   execute a statement under EXPLAIN ANALYZE
\\checkpoint      cut the durable log to a snapshot (durable sessions only)
\\metrics  engine metrics            \\help    this text
\\quit     exit"""


@dataclass
class ShellResult:
    """Outcome of one statement."""

    kind: str  # 'rows' | 'dml' | 'meta' | 'error'
    text: str
    rows: list[tuple] = field(default_factory=list)
    io_cost: int = 0


class ShellSession:
    """The scriptable engine behind ``python -m repro shell``."""

    def __init__(
        self,
        n_depts: int = 50,
        emps_per_dept: int = 10,
        seed: int = 0,
        enforce: bool = False,
        durable_path: str | None = None,
    ) -> None:
        # All reads and writes go through the transactional engine: DML
        # commits are measured with scoped I/O and violation reports come
        # from the TransactionResult, not from reaching into the DAG.
        self.db, self.system, self.engine = corporate_world(
            "enforce" if enforce else "immediate",
            n_depts=n_depts,
            emps_per_dept=emps_per_dept,
            seed=seed,
            durable_path=durable_path,
        )

    # -- statement execution -----------------------------------------------------

    def execute(self, text: str) -> ShellResult:
        text = text.strip()
        if not text:
            return ShellResult("meta", "")
        if text.startswith("\\"):
            return self._meta(text)
        return self._guarded(self._run, text)

    def _guarded(self, run: Callable[[str], ShellResult], text: str) -> ShellResult:
        """``run(text)``, with whatever it raises rendered by error tier."""
        try:
            return run(text)
        except Exception as exc:
            tier = error_tier(exc)
            if tier == "rejected":
                # Not an error: the enforcing engine rolled the statement back.
                return ShellResult("error", f"rejected: {exc} (transaction rolled back)")
            if tier == "invalid":
                return ShellResult("error", f"error: {exc}")
            event = "shell.internal_error"
            _log.error(
                "%s statement=%r", event, text, exc_info=exc,
                extra={"event": event, "statement": text},
            )
            return ShellResult("error", f"internal error: {exc!r}")

    def _run(self, text: str) -> ShellResult:
        statement = parse(text)
        if isinstance(statement, ast.SelectStmt):
            return self._run_select(statement)
        txn = dml_transaction([statement], self.db, "__shell")
        if not txn.updated_relations:
            return ShellResult("dml", "no rows affected")
        result = self.engine.execute(txn)
        cost = result.io.total
        [(relation, delta)] = txn.deltas.items()
        pieces = [
            f"{delta.inserts.total()} inserted, {delta.deletes.total()} deleted, "
            f"{len(delta.modifies)} modified in {relation}; "
            f"{cost} page I/Os of view maintenance"
        ]
        for name, entered in result.new_violations.items():
            pieces.append(f"VIOLATION {name}: {sorted(entered.rows())}")
        for name, cleared in result.cleared_violations.items():
            pieces.append(f"cleared {name}: {sorted(cleared.rows())}")
        return ShellResult("dml", "\n".join(pieces), io_cost=cost)

    def _run_select(self, statement: ast.SelectStmt) -> ShellResult:
        expr = translate_query(statement, self.db)
        result, io = self.engine.select(expr)
        rows = sorted(result.expand())
        header = ", ".join(expr.schema.names)
        lines = [header] + [", ".join(str(v) for v in row) for row in rows[:20]]
        if len(rows) > 20:
            lines.append(f"... ({len(rows)} rows total)")
        lines.append(f"({io.total} page I/Os)")
        return ShellResult("rows", "\n".join(lines), rows=rows, io_cost=io.total)

    # -- meta commands --------------------------------------------------------------

    def _meta(self, command: str) -> ShellResult:
        name = command.split()[0]
        if name in ("\\q", "\\quit", "\\exit"):
            return ShellResult("meta", "bye", rows=[("quit",)])
        if name == "\\help":
            return ShellResult("meta", HELP)
        if name == "\\views":
            lines = []
            maintainer = self.system.maintainer
            for gid in sorted(maintainer.marking):
                group = maintainer.memo.group(gid)
                if group.is_leaf:
                    continue
                contents = maintainer.view_contents(gid)
                lines.append(
                    f"N{gid} {group.schema}: {contents.total()} rows"
                )
            return ShellResult("meta", "\n".join(lines))
        if name == "\\plan":
            from repro.core.report import render_report

            return ShellResult(
                "meta",
                render_report(
                    self.system.dag,
                    self.system.plan,
                    self.system.txns,
                    self.system.cost_model,
                    self.system.estimator,
                ),
            )
        if name == "\\io":
            return ShellResult("meta", str(self.engine.io_snapshot()))
        if name == "\\checkpoint":
            durable = self.db.durable
            if durable is None:
                return ShellResult(
                    "error",
                    "not a durable session (start with --durable <dir> "
                    "or Database(durable_path=...))",
                )
            rows = self.db.checkpoint(tracer=self.engine.tracer)
            return ShellResult(
                "meta",
                f"checkpoint gen {durable.generation}: {rows} rows written; "
                f"{durable.stats.describe()}",
            )
        if name == "\\explain":
            return self._meta_explain(command)
        if name == "\\profile":
            return self._meta_profile(command)
        if name == "\\metrics":
            # Never empty: the engine's cache counts are always listed.
            return ShellResult("meta", "\n".join(self.engine.metrics.render()))
        if name == "\\check":
            lines = []
            for assertion in self.system.assertions:
                rows = self.system.current_violations(assertion)
                status = "satisfied" if not rows else f"VIOLATED by {sorted(rows.rows())}"
                lines.append(f"{assertion}: {status}")
            return ShellResult("meta", "\n".join(lines))
        return ShellResult("error", f"unknown command {name!r} (try \\help)")

    def _meta_explain(self, command: str) -> ShellResult:
        from repro.obs.explain import explain

        parts = command.split(maxsplit=1)
        maintainer = self.system.maintainer
        if len(parts) < 2:
            declared = ", ".join(sorted(maintainer.txn_types))
            return ShellResult(
                "error", f"usage: \\explain <txn>  (declared types: {declared})"
            )
        try:
            return ShellResult("meta", explain(maintainer, parts[1].strip()))
        except KeyError as exc:
            return ShellResult("error", f"error: {exc.args[0]}")

    def _meta_profile(self, command: str) -> ShellResult:
        """``\\profile <DML>`` — commit the statement under EXPLAIN ANALYZE."""
        parts = command.split(maxsplit=1)
        if len(parts) < 2:
            return ShellResult("error", "usage: \\profile <INSERT|UPDATE|DELETE ...>")
        return self._guarded(self._profile, parts[1].strip())

    def _profile(self, text: str) -> ShellResult:
        from repro.obs.explain import explain_analyze

        txn = dml_transaction([parse(text)], self.db, "__shell")
        if not txn.updated_relations:
            return ShellResult("dml", "no rows affected")
        report, result = explain_analyze(self.engine, txn)
        return ShellResult("dml", report, io_cost=result.io.total)


def run_repl(durable_path: str | None = None) -> int:  # pragma: no cover - interactive loop
    session = ShellSession(durable_path=durable_path)
    print("repro shell — the paper's corporate database with DeptConstraint installed")
    if session.db.durable is not None:
        state = "recovered" if session.db.recovered else "fresh"
        print(f"durable session at {session.db.durable.path} ({state})")
    print("type \\help for commands")
    while True:
        try:
            line = input("sql> ")
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        result = session.execute(line)
        if result.text:
            print(result.text)
        if result.kind == "meta" and result.rows == [("quit",)]:
            return 0
