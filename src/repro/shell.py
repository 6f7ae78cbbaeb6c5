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

Error surface: an :class:`AssertionViolation` from an enforcing session is
reported as a rejection (the transaction was rolled back), expected
engine/SQL errors render as ``error:``, and anything else renders as
``internal error:`` — set ``REPRO_SHELL_DEBUG=1`` to re-raise those with
a full traceback instead.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.constraints.assertions import AssertionSystem, AssertionViolation
from repro.engine import DeferredPolicy, Engine, EngineError
from repro.ivm.maintainer import MaintenanceError
from repro.storage.relation import StorageError
from repro.sql import ast
from repro.sql.dml import dml_to_delta, is_dml
from repro.sql.lexer import SQLSyntaxError
from repro.sql.parser import parse
from repro.sql.translate import SQLTranslationError, _translate_select
from repro.storage.database import Database
from repro.workload.paperdb import (
    DEPT_SCHEMA,
    EMP_SCHEMA,
    generate_corporate_db,
)
from repro.workload.transactions import Transaction, paper_transactions

DEPT_CONSTRAINT = """
CREATE ASSERTION DeptConstraint CHECK (NOT EXISTS (
    SELECT Dept.DName FROM Emp, Dept
    WHERE Dept.DName = Emp.DName
    GROUPBY Dept.DName, Budget
    HAVING SUM(Salary) > Budget))
"""

#: Maintenance policies :func:`corporate_world` accepts, in help order.
POLICIES = ("immediate", "deferred", "enforce")


def corporate_world(
    policy: str = "immediate",
    batch_size: int | None = None,
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
    :func:`generate_corporate_db`. ``batch_size`` is the deferred policy's
    flush threshold.
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
    engine = system.engine
    if policy == "deferred":
        engine = Engine(
            system.maintainer,
            policy=DeferredPolicy(batch_size=batch_size),
            assertion_roots=system.roots,
        )
    return db, system, engine


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
        self._schemas = {"Dept": DEPT_SCHEMA, "Emp": EMP_SCHEMA}

    # -- statement execution -----------------------------------------------------

    def execute(self, text: str) -> ShellResult:
        text = text.strip()
        if not text:
            return ShellResult("meta", "")
        if text.startswith("\\"):
            return self._meta(text)
        try:
            statement = parse(text)
        except SQLSyntaxError as exc:
            return ShellResult("error", f"syntax error: {exc}")
        try:
            if is_dml(statement):
                return self._run_dml(statement)
            if isinstance(statement, ast.SelectStmt):
                return self._run_select(statement)
        except AssertionViolation as exc:
            # Not an error: the enforcing engine rolled the statement back.
            return ShellResult("error", f"rejected: {exc} (transaction rolled back)")
        except (SQLTranslationError, EngineError, MaintenanceError, StorageError) as exc:
            return ShellResult("error", f"error: {exc}")
        except Exception as exc:
            if os.environ.get("REPRO_SHELL_DEBUG"):
                raise
            return ShellResult(
                "error",
                f"internal error: {exc!r} (set REPRO_SHELL_DEBUG=1 to re-raise)",
            )
        return ShellResult(
            "error", "only SELECT and DML statements are supported here"
        )

    def _run_select(self, statement: ast.SelectStmt) -> ShellResult:
        expr = _translate_select(statement, self._schemas, ())
        result, io = self.engine.select(expr)
        rows = sorted(result.expand())
        header = ", ".join(expr.schema.names)
        lines = [header] + [", ".join(str(v) for v in row) for row in rows[:20]]
        if len(rows) > 20:
            lines.append(f"... ({len(rows)} rows total)")
        lines.append(f"({io.total} page I/Os)")
        return ShellResult("rows", "\n".join(lines), rows=rows, io_cost=io.total)

    def _run_dml(self, statement) -> ShellResult:
        relation, delta = dml_to_delta(statement, self.db)
        if delta.is_empty:
            return ShellResult("dml", "no rows affected")
        txn = Transaction("__shell", {relation: delta})
        result = self.engine.execute(txn)
        cost = result.io.total
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
                    "not a durable session (start with REPRO_DURABLE=<dir> "
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
            lines = self.engine.metrics.render()
            return ShellResult("meta", "\n".join(lines) if lines else "(no metrics yet)")
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
        """``\\profile <DML>`` — commit the statement under EXPLAIN ANALYZE.

        Meta dispatch bypasses ``execute``'s try/except, so this carries its
        own error surface (same tiers, same REPRO_SHELL_DEBUG escape hatch).
        """
        from repro.obs.explain import explain_analyze

        parts = command.split(maxsplit=1)
        if len(parts) < 2:
            return ShellResult("error", "usage: \\profile <INSERT|UPDATE|DELETE ...>")
        try:
            statement = parse(parts[1].strip())
        except SQLSyntaxError as exc:
            return ShellResult("error", f"syntax error: {exc}")
        if not is_dml(statement):
            return ShellResult("error", "\\profile takes a DML statement")
        try:
            relation, delta = dml_to_delta(statement, self.db)
            if delta.is_empty:
                return ShellResult("dml", "no rows affected")
            txn = Transaction("__shell", {relation: delta})
            text, result = explain_analyze(self.engine, txn)
        except AssertionViolation as exc:
            return ShellResult("error", f"rejected: {exc} (transaction rolled back)")
        except (SQLTranslationError, EngineError, MaintenanceError, StorageError) as exc:
            return ShellResult("error", f"error: {exc}")
        except Exception as exc:
            if os.environ.get("REPRO_SHELL_DEBUG"):
                raise
            return ShellResult(
                "error",
                f"internal error: {exc!r} (set REPRO_SHELL_DEBUG=1 to re-raise)",
            )
        return ShellResult("dml", text, io_cost=result.io.total)


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
