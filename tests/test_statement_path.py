"""The one statement path both SQL front ends share (``repro.sql.dml``).

The shell and the socket server derive DML, translate SELECTs and tier
errors through the same functions, so the same statement must land in the
same tier in both. The server here runs in-process on a background event
loop, with its group committer started, and is driven over a real socket.
"""

import asyncio
import contextlib
import threading

import pytest

from repro.server.client import ReproClient
from repro.server.server import ReproServer
from repro.shell import ShellSession
from repro.sql.dml import dml_transaction, error_tier
from repro.sql.parser import parse
from repro.sql.translate import SQLTranslationError

WORLD = dict(n_depts=4, emps_per_dept=3, seed=5)


@contextlib.contextmanager
def running(server):
    """``server`` listening on a background event loop, committer started."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    try:
        asyncio.run_coroutine_threadsafe(server.start(), loop).result(30)
        yield server
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        assert not thread.is_alive()
        loop.close()


@pytest.fixture(scope="module")
def server():
    with running(ReproServer(policy="enforce", **WORLD)) as server:
        yield server


@pytest.fixture(scope="module")
def client(server):
    with ReproClient(port=server.port) as client:
        yield client


@pytest.fixture(scope="module")
def shell():
    return ShellSession(enforce=True, **WORLD)


def server_tier(client, text):
    response = client.request({"op": "sql", "q": text})
    return "ok" if response["ok"] else response["error"]


def shell_tier(shell, text):
    result = shell.execute(text)
    if result.kind != "error":
        return "ok"
    for prefix, tier in (("rejected:", "rejected"), ("error:", "invalid")):
        if result.text.startswith(prefix):
            return tier
    return "internal"


# Run in order against both worlds, so the DML leaves them identical.
STATEMENTS = [
    ("select", "SELECT DName, Budget FROM Dept", "ok"),
    ("join", "SELECT EName, Budget FROM Emp, Dept WHERE Emp.DName = Dept.DName", "ok"),
    ("update", "UPDATE Emp SET Salary = Salary + 1 WHERE EName = 'emp00000_000'", "ok"),
    ("insert", "INSERT INTO Emp VALUES ('zz', 'dept00000', 1)", "ok"),
    ("delete", "DELETE FROM Emp WHERE EName = 'zz'", "ok"),
    ("no-op", "DELETE FROM Emp WHERE Salary < 0", "ok"),
    ("syntax", "SELEKT nope", "invalid"),
    ("not-select-or-dml", "CREATE VIEW V AS SELECT DName FROM Dept", "invalid"),
    ("unknown-table", "SELECT X FROM Nope", "invalid"),
    ("unknown-dml-table", "UPDATE Nope SET X = 1", "invalid"),
    ("unknown-column", "SELECT Nope FROM Dept", "invalid"),
    ("unknown-set-column", "UPDATE Emp SET Foo = 1", "invalid"),
    ("arity", "INSERT INTO Emp VALUES (1, 2)", "invalid"),
    ("float-into-int", "INSERT INTO Emp VALUES ('zz', 'dept00000', 1.5)", "invalid"),
    ("set-type", "UPDATE Emp SET Salary = 'abc'", "invalid"),
    ("where-type", "UPDATE Emp SET Salary = 1 WHERE Salary > 'x'", "invalid"),
    ("select-where-type", "SELECT EName FROM Emp WHERE Salary > 'x'", "invalid"),
    ("select-arith-type", "SELECT Salary + 'x' AS s FROM Emp", "invalid"),
    (
        "key-violation",
        "UPDATE Emp SET EName = 'emp00000_001' WHERE EName = 'emp00000_000'",
        "invalid",
    ),
    (
        "assertion",
        "UPDATE Emp SET Salary = Salary + 100000 WHERE DName = 'dept00001'",
        "rejected",
    ),
]


@pytest.mark.parametrize(
    "text, tier", [s[1:] for s in STATEMENTS], ids=[s[0] for s in STATEMENTS]
)
def test_both_front_ends_report_the_same_tier(shell, client, text, tier):
    assert (shell_tier(shell, text), server_tier(client, text)) == (tier, tier)


def test_both_worlds_end_identical(shell, client, server):
    query = "SELECT EName, DName, Salary FROM Emp"
    assert shell.execute(query).rows == client.query(query)
    server.engine.maintainer.verify()
    shell.system.maintainer.verify()


class TestMultiStatementTransaction:
    """Statement *k* of a ``txn`` is derived against the rows statements
    1..*k*−1 left, not against the pre-transaction state."""

    @pytest.fixture
    def txn_client(self):
        with running(ReproServer(**WORLD)) as server:
            with ReproClient(port=server.port) as client:
                yield client, server

    def salary(self, client, name):
        return client.query(f"SELECT Salary FROM Emp WHERE EName = '{name}'")

    def test_two_updates_of_one_row_both_apply(self, txn_client):
        client, server = txn_client
        [(before,)] = self.salary(client, "emp00000_000")
        raise_ = "UPDATE Emp SET Salary = Salary + 1 WHERE EName = 'emp00000_000'"
        assert client.transaction([raise_, raise_])["status"] == "committed"
        assert self.salary(client, "emp00000_000") == [(before + 2,)]
        server.engine.maintainer.verify()

    def test_two_deletes_of_one_row_delete_it_once(self, txn_client):
        client, server = txn_client
        fire = "DELETE FROM Emp WHERE EName = 'emp00000_000'"
        assert client.transaction([fire, fire])["status"] == "committed"
        assert self.salary(client, "emp00000_000") == []
        server.engine.maintainer.verify()

    def test_update_sees_the_row_an_earlier_insert_added(self, txn_client):
        client, server = txn_client
        response = client.transaction(
            [
                "INSERT INTO Emp VALUES ('zz', 'dept00000', 1)",
                "UPDATE Emp SET Salary = 2 WHERE EName = 'zz'",
            ]
        )
        assert response["status"] == "committed"
        assert self.salary(client, "zz") == [(2,)]
        server.engine.maintainer.verify()


class TestDmlTransaction:
    def test_one_statement_is_dml_to_delta_as_is(self, small_paper_db):
        txn = dml_transaction(
            [parse("DELETE FROM Emp WHERE Salary < 0")], small_paper_db, "t"
        )
        assert txn.type_name == "t"
        assert list(txn.deltas) == ["Emp"] and txn.deltas["Emp"].is_empty
        assert not txn.updated_relations

    def test_statements_compose_without_touching_storage(self, small_paper_db):
        emp = small_paper_db.relation("Emp")
        before = emp.contents()
        txn = dml_transaction(
            [
                parse("INSERT INTO Emp VALUES ('zz', 'dept00000', 1)"),
                parse("UPDATE Emp SET Salary = Salary + 1 WHERE DName = 'dept00000'"),
                parse("DELETE FROM Emp WHERE EName = 'zz'"),
            ],
            small_paper_db,
            "t",
        )
        assert emp.contents() == before
        delta = txn.deltas["Emp"]
        assert not delta.inserts and not delta.deletes
        assert sorted(new[2] - old[2] for old, new in delta.modifies) == [1] * 5

    @pytest.mark.parametrize(
        "text",
        [
            "INSERT INTO Emp VALUES (1, 2)",
            "UPDATE Emp SET Foo = 1",
            "UPDATE Emp SET Salary = 'abc'",
            "DELETE FROM Emp WHERE Salary > 'x'",
        ],
    )
    def test_statement_mistakes_are_translation_errors(self, small_paper_db, text):
        with pytest.raises(SQLTranslationError) as caught:
            dml_transaction([parse(text)], small_paper_db, "t")
        assert error_tier(caught.value) == "invalid"

    def test_commit_errors_keep_their_class(self):
        from repro.algebra.types import TypeError_
        from repro.ivm.propagate import PropagationError

        # Storage refuses a mistyped row of the client's delta before any
        # maintenance runs: the request's own fault.
        assert error_tier(TypeError_("from a commit")) == "invalid"
        assert error_tier(PropagationError("x")) == "internal"
        assert error_tier(ValueError("x")) == "internal"
