"""Tests for the interactive shell engine."""

import logging

import pytest

from repro.shell import ShellSession


@pytest.fixture(scope="module")
def session():
    return ShellSession(n_depts=6, emps_per_dept=4, seed=3)


@pytest.fixture
def fresh():
    return ShellSession(n_depts=4, emps_per_dept=3, seed=5)


class TestSelect:
    def test_simple_query(self, session):
        result = session.execute("SELECT DName FROM Dept")
        assert result.kind == "rows"
        assert len(result.rows) == 6

    def test_aggregate_query(self, session):
        result = session.execute(
            "SELECT DName, COUNT(*) AS N FROM Emp GROUPBY DName"
        )
        assert all(row[1] == 4 for row in result.rows)

    def test_join_query(self, session):
        result = session.execute(
            "SELECT EName, Budget FROM Emp, Dept WHERE Emp.DName = Dept.DName"
        )
        assert len(result.rows) == 24

    def test_long_results_truncated(self, session):
        result = session.execute("SELECT EName FROM Emp")
        assert "(24 rows total)" in result.text

    def test_syntax_error(self, session):
        result = session.execute("SELEKT nope")
        assert result.kind == "error"

    def test_semantic_error(self, session):
        result = session.execute("SELECT Nope FROM Dept")
        assert result.kind == "error"

    def test_create_view_rejected(self, session):
        result = session.execute("CREATE VIEW V AS SELECT DName FROM Dept")
        assert result.kind == "error"


class TestDML:
    def test_violation_lifecycle(self, fresh):
        slash = fresh.execute(
            "UPDATE Dept SET Budget = 1 WHERE DName = 'dept00001'"
        )
        assert slash.kind == "dml"
        assert "VIOLATION DeptConstraint" in slash.text
        check = fresh.execute("\\check")
        assert "VIOLATED" in check.text
        restore = fresh.execute(
            "UPDATE Dept SET Budget = 1000 WHERE DName = 'dept00001'"
        )
        assert "cleared DeptConstraint" in restore.text
        assert "satisfied" in fresh.execute("\\check").text

    def test_io_reported(self, fresh):
        result = fresh.execute(
            "UPDATE Emp SET Salary = Salary + 1 WHERE DName = 'dept00000'"
        )
        assert result.io_cost > 0
        assert "page I/Os" in result.text

    def test_insert_and_delete(self, fresh):
        fresh.execute("INSERT INTO Emp VALUES ('temp', 'dept00000', 1)")
        rows = fresh.execute("SELECT EName FROM Emp WHERE EName = 'temp'").rows
        assert rows == [("temp",)]
        fresh.execute("DELETE FROM Emp WHERE EName = 'temp'")
        rows = fresh.execute("SELECT EName FROM Emp WHERE EName = 'temp'").rows
        assert rows == []
        fresh.system.maintainer.verify()

    def test_negative_value_is_stored(self, fresh):
        result = fresh.execute("UPDATE Emp SET Salary = -1 WHERE EName = 'emp00000_000'")
        assert result.kind == "dml", result.text
        rows = fresh.execute("SELECT EName FROM Emp WHERE Salary = -1").rows
        assert rows == [("emp00000_000",)]
        fresh.system.maintainer.verify()

    def test_noop_dml(self, fresh):
        result = fresh.execute("DELETE FROM Emp WHERE Salary < 0")
        assert result.text == "no rows affected"

    def test_views_stay_consistent(self, fresh):
        statements = [
            "UPDATE Emp SET Salary = Salary * 2 WHERE DName = 'dept00002'",
            "INSERT INTO Emp VALUES ('x1', 'dept00003', 400)",
            "DELETE FROM Emp WHERE DName = 'dept00000'",
        ]
        for text in statements:
            assert fresh.execute(text).kind == "dml"
            fresh.system.maintainer.verify()


class TestMeta:
    def test_help(self, session):
        assert "SELECT" in session.execute("\\help").text

    def test_views(self, session):
        text = session.execute("\\views").text
        assert "sum_salary" in text

    def test_plan(self, session):
        text = session.execute("\\plan").text
        assert "Materialization advisor report" in text

    def test_io(self, session):
        assert "I/Os" in session.execute("\\io").text

    def test_unknown(self, session):
        assert session.execute("\\frobnicate").kind == "error"

    def test_quit(self, session):
        result = session.execute("\\quit")
        assert result.rows == [("quit",)]

    def test_empty_line(self, session):
        assert session.execute("   ").text == ""


class TestErrorSurface:
    def test_enforcing_session_reports_rejection(self):
        session = ShellSession(n_depts=4, emps_per_dept=3, seed=5, enforce=True)
        result = session.execute("UPDATE Emp SET Salary = Salary + 100000")
        assert result.kind == "error"
        assert result.text.startswith("rejected:")
        assert "rolled back" in result.text
        # The rejection really rolled back: no violations linger.
        assert "VIOLATED" not in session.execute("\\check").text

    def test_expected_errors_render_as_error(self, session):
        result = session.execute("UPDATE Nope SET X = 1")
        assert result.kind == "error"
        assert result.text.startswith("error:")

    def test_internal_error_is_logged_with_its_traceback(self, fresh, monkeypatch, caplog):
        monkeypatch.setattr(
            fresh.engine, "execute", lambda txn: (_ for _ in ()).throw(RuntimeError("boom"))
        )
        statement = "UPDATE Emp SET Salary = Salary + 1"
        with caplog.at_level(logging.ERROR, logger="repro.shell"):
            result = fresh.execute(statement)
        assert result.text == "internal error: RuntimeError('boom')"
        [record] = caplog.records
        assert (record.levelno, record.event, record.statement) == (
            logging.ERROR, "shell.internal_error", statement
        )
        assert record.exc_info[0] is RuntimeError
        assert "boom" in caplog.text and "Traceback" in caplog.text

    def test_internal_error_reported_without_debug(self, fresh, monkeypatch):
        monkeypatch.setattr(
            fresh.engine, "execute", lambda txn: (_ for _ in ()).throw(RuntimeError("boom"))
        )
        result = fresh.execute("UPDATE Emp SET Salary = Salary + 1")
        assert result.kind == "error"
        assert result.text.startswith("internal error:")


class TestObservabilityMeta:
    def test_explain_lists_types_without_arg(self, session):
        result = session.execute("\\explain")
        assert result.kind == "error"
        assert ">Emp" in result.text

    def test_explain_declared_txn(self, session):
        result = session.execute("\\explain >Emp")
        assert result.kind == "meta"
        assert "EXPLAIN >Emp" in result.text
        assert "est I/O" in result.text

    def test_explain_unknown_txn(self, session):
        result = session.execute("\\explain >Nope")
        assert result.kind == "error"

    def test_profile_runs_dml_under_explain_analyze(self, fresh):
        result = fresh.execute("\\profile UPDATE Emp SET Salary = Salary + 1")
        assert result.kind == "dml"
        assert "EXPLAIN ANALYZE" in result.text
        assert "measured" in result.text
        assert result.io_cost > 0
        fresh.system.maintainer.verify()

    def test_profile_requires_dml(self, session):
        assert session.execute("\\profile SELECT DName FROM Dept").kind == "error"
        assert session.execute("\\profile").kind == "error"

    def test_metrics_after_commit(self, fresh):
        fresh.execute("UPDATE Emp SET Salary = Salary + 1")
        text = fresh.execute("\\metrics").text
        assert "engine.commits" in text
