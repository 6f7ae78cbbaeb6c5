"""Tests for SQL DML parsing and translation to deltas."""

import pytest

from repro.sql import ast
from repro.sql.dml import dml_to_delta, dml_transaction, is_dml
from repro.sql.lexer import SQLSyntaxError
from repro.sql.parser import parse
from repro.sql.translate import SQLTranslationError


class TestParsing:
    def test_insert_multi_row(self):
        stmt = parse("INSERT INTO T VALUES (1, 'a'), (2, 'b')")
        assert isinstance(stmt, ast.InsertStmt)
        assert stmt.rows == ((1, "a"), (2, "b"))

    def test_insert_negative_and_float(self):
        stmt = parse("INSERT INTO T VALUES (-5, 2.5)")
        assert stmt.rows == ((-5, 2.5),)

    def test_insert_requires_literals(self):
        with pytest.raises(SQLSyntaxError):
            parse("INSERT INTO T VALUES (a + 1)")

    def test_delete_with_and_without_where(self):
        assert parse("DELETE FROM T").where is None
        assert parse("DELETE FROM T WHERE a = 1").where is not None

    def test_update(self):
        stmt = parse("UPDATE T SET a = a + 1, b = 'x' WHERE c < 3")
        assert isinstance(stmt, ast.UpdateStmt)
        assert [a.column for a in stmt.assignments] == ["a", "b"]

    def test_is_dml(self):
        assert is_dml(parse("DELETE FROM T"))
        assert not is_dml(parse("SELECT a FROM T"))


class TestTranslation:
    def test_insert_delta(self, small_paper_db):
        rel, delta = dml_to_delta(
            parse("INSERT INTO Emp VALUES ('zz', 'dept00000', 42)"),
            small_paper_db,
        )
        assert rel == "Emp"
        assert delta.inserts.count(("zz", "dept00000", 42)) == 1

    def test_insert_type_checked(self, small_paper_db):
        from repro.algebra.types import TypeError_

        with pytest.raises(TypeError_):
            dml_to_delta(
                parse("INSERT INTO Emp VALUES (1, 2, 'not-a-salary')"),
                small_paper_db,
            )

    def test_delete_where(self, small_paper_db):
        rel, delta = dml_to_delta(
            parse("DELETE FROM Emp WHERE DName = 'dept00000'"), small_paper_db
        )
        assert delta.deletes.total() == 5  # 5 employees per department
        assert all(r[1] == "dept00000" for r in delta.deletes.rows())

    def test_delete_all(self, small_paper_db):
        rel, delta = dml_to_delta(parse("DELETE FROM Emp"), small_paper_db)
        assert delta.deletes.total() == small_paper_db.relation("Emp").row_count

    def test_update_arithmetic(self, small_paper_db):
        rel, delta = dml_to_delta(
            parse("UPDATE Emp SET Salary = Salary + 10 WHERE DName = 'dept00001'"),
            small_paper_db,
        )
        assert len(delta.modifies) == 5
        for old, new in delta.modifies:
            assert new[2] == old[2] + 10

    def test_update_no_op_rows_excluded(self, small_paper_db):
        rel, delta = dml_to_delta(
            parse("UPDATE Emp SET Salary = Salary WHERE DName = 'dept00001'"),
            small_paper_db,
        )
        assert delta.is_empty

    def test_update_aggregates_rejected(self, small_paper_db):
        with pytest.raises(SQLTranslationError):
            dml_to_delta(
                parse("UPDATE Emp SET Salary = SUM(Salary)"), small_paper_db
            )

    def test_unknown_table(self, small_paper_db):
        from repro.storage.relation import StorageError

        with pytest.raises((SQLTranslationError, StorageError)):
            dml_to_delta(parse("DELETE FROM Nope"), small_paper_db)

    def test_dml_transaction_from_text(self, small_paper_db):
        txn = dml_transaction(
            [parse("UPDATE Dept SET Budget = 1 WHERE DName = 'dept00002'")],
            small_paper_db,
            ">Dept",
        )
        assert txn.type_name == ">Dept"
        assert len(txn.deltas["Dept"].modifies) == 1

    def test_execute_rejects_select(self, small_paper_db):
        with pytest.raises(SQLTranslationError):
            dml_transaction([parse("SELECT DName FROM Dept")], small_paper_db, "q")


class TestPointDmlProbes:
    """Key-pinned DML on the 10 000-employee corporate world finds its row
    through the key map: it never copies a relation, and what it derives
    still applies, rejects and rolls back like any delta."""

    @pytest.fixture(scope="class")
    def world(self):
        from repro.shell import corporate_world

        return corporate_world(n_depts=1000, emps_per_dept=10)

    @pytest.fixture
    def copies(self, monkeypatch):
        from repro.storage.relation import StoredRelation

        calls = []
        contents = StoredRelation.contents

        def counted(self):
            calls.append(self.name)
            return contents(self)

        monkeypatch.setattr(StoredRelation, "contents", counted)
        return calls

    @pytest.mark.parametrize(
        "text, kind",
        [
            ("UPDATE Emp SET Salary = Salary + 1 WHERE EName = 'emp00500_003'", "modifies"),
            ("UPDATE Emp SET Salary = Salary - 1 WHERE Emp.EName = 'emp00017_009'", "modifies"),
            ("DELETE FROM Emp WHERE EName = 'emp00999_000'", "deletes"),
            ("DELETE FROM Emp WHERE 'emp00000_000' = EName AND Salary > 0", "deletes"),
            ("UPDATE Dept SET Budget = Budget + 1 WHERE DName = 'dept00500'", "modifies"),
        ],
    )
    def test_key_pinned_dml_never_copies_a_relation(self, world, copies, text, kind):
        db = world[0]
        before = db.counter.snapshot()
        _, delta = dml_to_delta(parse(text), db)
        assert copies == []
        assert db.counter.snapshot() == before
        changed = len(delta.modifies) if kind == "modifies" else delta.deletes.total()
        assert changed == 1

    def test_key_violating_update_rejects_and_rolls_back(self, world):
        from repro.engine import EngineError
        from repro.storage.relation import StorageError

        db, _, engine = world
        emp = db.relation("Emp")
        before = emp.contents()
        txn = dml_transaction(
            [parse("UPDATE Emp SET EName = 'emp00001_001' WHERE EName = 'emp00001_000'")],
            db,
            "rename",
        )
        with pytest.raises((StorageError, EngineError)):
            engine.execute(txn)
        assert emp.contents() == before
        assert emp.row_count == before.total()
        assert emp.candidates({"EName": "emp00001_000"}) == (
            ("EName",), [row for row in before.rows() if row[0] == "emp00001_000"]
        )
        # The key map still serves the next statement.
        txn = dml_transaction(
            [parse("UPDATE Emp SET Salary = 1 WHERE EName = 'emp00001_000'")], db, "fix"
        )
        engine.execute(txn)
        assert emp.candidates({"EName": "emp00001_000"})[1][0][2] == 1
        engine.maintainer.verify()


class TestEndToEndMaintenance:
    def test_dml_drives_views(self, small_paper_db):
        """Statements → deltas → maintained views, verified."""
        from repro.core.optimizer import evaluate_view_set
        from repro.cost.estimates import DagEstimator
        from repro.cost.model import CostConfig
        from repro.cost.page_io import PageIOCostModel
        from repro.dag.builder import build_dag
        from repro.ivm.maintainer import ViewMaintainer
        from repro.storage.statistics import Catalog
        from repro.workload.paperdb import problem_dept_tree
        from repro.workload.transactions import paper_transactions, TransactionType, UpdateSpec

        db = small_paper_db
        dag = build_dag(problem_dept_tree())
        estimator = DagEstimator(dag.memo, Catalog.from_database(db))
        cost_model = PageIOCostModel(dag.memo, estimator, CostConfig(root_group=dag.root))
        txns = paper_transactions() + (
            TransactionType("hire", {"Emp": UpdateSpec(inserts=1)}),
            TransactionType("fire", {"Emp": UpdateSpec(deletes=5)}),
        )
        marking = frozenset({dag.root})
        ev = evaluate_view_set(dag.memo, marking, txns, cost_model, estimator)
        maintainer = ViewMaintainer(
            db, dag, marking, txns,
            {n: p.track for n, p in ev.per_txn.items()},
            estimator, cost_model,
        )
        maintainer.materialize()
        statements = [
            (">Emp", "UPDATE Emp SET Salary = Salary + 1000 WHERE DName = 'dept00003'"),
            ("hire", "INSERT INTO Emp VALUES ('boss', 'dept00003', 5000)"),
            (">Dept", "UPDATE Dept SET Budget = 10 WHERE DName = 'dept00004'"),
            ("fire", "DELETE FROM Emp WHERE DName = 'dept00004'"),
        ]
        for name, text in statements:
            txn = dml_transaction([parse(text)], db, name)
            maintainer.apply(txn)
            maintainer.verify()
        # dept00003 now far exceeds its budget; dept00004 has no employees.
        root = maintainer.view_contents(dag.root)
        assert ("dept00003",) in root
        assert ("dept00004",) not in root
