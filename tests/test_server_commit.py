"""Tests for the group committer, the wire protocol, and the concurrency
bugfix sweep that rode along with the server (ad-hoc name races, metrics
bleed — see also test_runner.py / test_cli.py for their satellites)."""

import threading

import pytest

from repro.constraints.assertions import (
    AssertionSystem,
    AssertionViolation,
)
from repro.engine import Engine, EngineError
from repro.ivm.delta import Delta
from repro.server import protocol
from repro.server.commit import (
    GroupCommitter,
    compose_batch,
    replay_batches,
)
from repro.sql.dml import StatementRider
from repro.sql.parser import parse
from repro.sql.translate import SQLTranslationError
from repro.workload.transactions import Transaction, paper_transactions
from tests.test_engine import DEPT_CONSTRAINT, build_maintainer, emp_raise


@pytest.fixture
def engine(small_paper_db):
    return Engine(build_maintainer(small_paper_db))


@pytest.fixture
def enforcing(small_paper_db):
    system = AssertionSystem(
        small_paper_db, [DEPT_CONSTRAINT], paper_transactions(), enforce=True
    )
    return system.engine


def _fresh_engine():
    """A brand-new 20×5 corporate world (seed 7, same as small_paper_db) —
    replay-oracle tests need two independent but identical databases."""
    from repro.storage.database import Database
    from repro.workload.paperdb import (
        DEPT_SCHEMA,
        EMP_SCHEMA,
        generate_corporate_db,
    )

    db = Database()
    data = generate_corporate_db(20, 5, seed=7)
    db.create_relation("Dept", DEPT_SCHEMA, data["Dept"], indexes=[["DName"]])
    db.create_relation("Emp", EMP_SCHEMA, data["Emp"], indexes=[["DName"]])
    return Engine(build_maintainer(db))


def _raises(db, indexes, amount=1):
    rows = sorted(db.relation("Emp").contents().rows())
    txns = []
    for i in indexes:
        old = rows[i]
        new = (old[0], old[1], old[2] + amount)
        txns.append(Transaction(">Emp", {"Emp": Delta.modification([(old, new)])}))
    return txns


class TestComposeBatch:
    def test_cancelling_deltas_compose_to_none(self, small_paper_db):
        row = ("zz", "Toy", 5)
        hire = Transaction("Hire", {"Emp": Delta.insertion([row])})
        fire = Transaction("Fire", {"Emp": Delta.deletion([row])})
        assert compose_batch(small_paper_db, [hire, fire], "b") is None

    def test_sequential_deltas_net(self, small_paper_db):
        txns = _raises(small_paper_db, [0, 0])  # both touch row 0's old value
        composed = compose_batch(small_paper_db, _raises(small_paper_db, [0, 1]), "b")
        assert composed is not None
        assert composed.type_name == "b"
        assert len(composed.deltas["Emp"].modifies) == 2
        del txns


class TestGroupCommitter:
    def test_batches_compose_and_commit(self, engine):
        committer = GroupCommitter(engine, max_batch=8).start()
        txns = _raises(engine.db, range(10))
        requests = [committer.submit(t) for t in txns]
        results = [r.wait(10) for r in requests]
        committer.close()
        assert all(r.committed for r in results)
        assert all(r.batch is not None for r in results)
        assert sum(b.size for b in committer.batches) == 10
        engine.maintainer.verify()

    def test_cancelling_batch_is_free(self, engine):
        committer = GroupCommitter(engine, max_batch=4)
        row = ("zz", "Toy", 5)
        hire = committer.submit(Transaction("Hire", {"Emp": Delta.insertion([row])}))
        fire = committer.submit(Transaction("Fire", {"Emp": Delta.deletion([row])}))
        before = engine.db.counter.snapshot()
        committer.start()
        assert hire.wait(10).committed and fire.wait(10).committed
        committer.close()
        [batch] = committer.batches
        assert batch.empty and not batch.replayed
        assert engine.db.counter.snapshot() == before  # zero maintenance I/O
        assert row not in engine.db.relation("Emp").contents()

    def test_violating_batch_replays_and_isolates_violator(self, enforcing):
        """One rider pushes a department over budget; the composed batch is
        rejected, the per-client replay commits the innocent rider and
        rejects only the violator."""
        committer = GroupCommitter(enforcing, max_batch=4)
        ok_txn = _raises(enforcing.db, [0], amount=1)[0]
        rows = sorted(enforcing.db.relation("Emp").contents().rows())
        old = rows[1]
        bad = (old[0], old[1], old[2] + 100_000)
        bad_txn = Transaction(">Emp", {"Emp": Delta.modification([(old, bad)])})
        ok_req = committer.submit(ok_txn)
        bad_req = committer.submit(bad_txn)
        committer.start()
        assert ok_req.wait(10).committed
        with pytest.raises(AssertionViolation):
            bad_req.wait(10)
        committer.close()
        [batch] = committer.batches
        assert batch.replayed
        assert len(batch.results) == 1  # only the innocent rider committed
        assert bad not in enforcing.db.relation("Emp").contents()
        enforcing.maintainer.verify()

    def test_submit_after_close_raises(self, engine):
        committer = GroupCommitter(engine).start()
        committer.close()
        with pytest.raises(EngineError, match="closed"):
            committer.submit(_raises(engine.db, [0])[0])

    def test_close_is_idempotent(self, engine):
        committer = GroupCommitter(engine).start()
        committer.close()
        committer.close()

    def test_max_batch_validated(self, engine):
        with pytest.raises(EngineError):
            GroupCommitter(engine, max_batch=0)

    def test_replay_batches_is_bit_identical(self):
        live = _fresh_engine()
        committer = GroupCommitter(live, max_batch=4).start()
        requests = [committer.submit(t) for t in _raises(live.db, range(8))]
        for request in requests:
            request.wait(10)
        committer.close()

        oracle = _fresh_engine()
        records = replay_batches(oracle, committer.batches)
        assert len(records) == len(committer.batches)
        assert oracle.db.relation("Emp").contents() == (
            live.db.relation("Emp").contents()
        )
        assert oracle.db.counter.snapshot() == live.db.counter.snapshot()

    def test_concurrent_submitters(self, engine):
        committer = GroupCommitter(engine, max_batch=8).start()
        txns = _raises(engine.db, range(16))
        results = []
        lock = threading.Lock()

        def drive(chunk):
            for txn in chunk:
                result = committer.execute(txn, timeout=10)
                with lock:
                    results.append(result)

        threads = [
            threading.Thread(target=drive, args=(txns[i::4],)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        committer.close()
        assert len(results) == 16 and all(r.committed for r in results)
        engine.maintainer.verify()


class TestStatementRiders:
    """Parsed DML derived on the commit thread, in queue order."""

    @staticmethod
    def _rider(name, *statements):
        return StatementRider(name, tuple(parse(s) for s in statements))

    def test_same_row_riders_in_one_batch_both_commit(self, engine):
        row = sorted(engine.db.relation("Emp").contents().rows())[0]
        raise_ = f"UPDATE Emp SET Salary = Salary + 1 WHERE EName = '{row[0]}'"
        committer = GroupCommitter(engine, max_batch=4)
        first = committer.submit(self._rider("__a", raise_))
        second = committer.submit(self._rider("__b", raise_, raise_))
        committer.start()
        assert first.wait(10).committed and second.wait(10).committed
        committer.close()
        [batch] = committer.batches
        assert not batch.replayed and batch.txn_names == ("__a", "__b")
        assert [t.type_name for t in batch.txns] == ["__a", "__b"]
        # The second rider saw the first one's raise: 1 + 2 in all.
        assert (row[0], row[1], row[2] + 3) in engine.db.relation("Emp").contents()
        engine.maintainer.verify()

    def test_failed_derivation_fails_alone(self, engine):
        committer = GroupCommitter(engine, max_batch=4)
        bad = committer.submit(self._rider("__bad", "UPDATE Emp SET Salary = 'x'"))
        empty = committer.submit(
            self._rider("__empty", "DELETE FROM Emp WHERE EName = 'nobody'")
        )
        good = committer.submit(
            self._rider("__good", "INSERT INTO Emp VALUES ('zz', 'Toy', 5)")
        )
        committer.start()
        with pytest.raises(SQLTranslationError):
            bad.wait(10)
        assert empty.wait(10).committed and not empty.txn.updated_relations
        assert good.wait(10).committed
        committer.close()
        [batch] = committer.batches
        assert batch.size == 3 and [t.type_name for t in batch.txns] == [
            "__empty",
            "__good",
        ]
        assert bad.txn is None

    def test_replay_rederives_after_a_rejected_rider(self, enforcing):
        """The violator is rejected on replay, so the rider behind it is
        re-derived against the rows without the violator's raise."""
        name, dept, salary = sorted(enforcing.db.relation("Emp").contents().rows())[1]
        committer = GroupCommitter(enforcing, max_batch=4)
        calls = []
        bad = committer.submit(
            self._rider(
                "__bad", f"UPDATE Emp SET Salary = Salary + 100000 WHERE EName = '{name}'"
            ),
            callback=calls.append,
        )
        ok = committer.submit(
            self._rider("__ok", f"UPDATE Emp SET Salary = Salary + 1 WHERE EName = '{name}'"),
            callback=calls.append,
        )
        committer.start()
        with pytest.raises(AssertionViolation):
            bad.wait(10)
        assert ok.wait(10).committed
        committer.close()
        assert calls == [bad, ok]  # each callback ran once, in queue order
        [batch] = committer.batches
        assert batch.replayed
        assert (name, dept, salary + 1) in enforcing.db.relation("Emp").contents()

        oracle = AssertionSystem(
            _fresh_engine().db, [DEPT_CONSTRAINT], paper_transactions(), enforce=True
        ).engine
        records = replay_batches(oracle, committer.batches)
        assert records[0].replayed
        assert oracle.db.relation("Emp").contents() == (
            enforcing.db.relation("Emp").contents()
        )


class TestAdhocNameRace:
    def test_interleaved_adhoc_dml_commits_cleanly(self, engine):
        """Unnamed (ad-hoc) DML from concurrent clients through the
        committer: every commit plans and applies on its own."""
        committer = GroupCommitter(engine, max_batch=1).start()
        rows = sorted(engine.db.relation("Emp").contents().rows())

        def drive(offset):
            for i in range(offset, offset + 4):
                old = rows[i]
                new = (old[0], old[1], old[2] + 1)
                committer.execute(
                    Transaction(
                        f"__c{offset}_{i}",
                        {"Emp": Delta.modification([(old, new)])},
                    ),
                    timeout=10,
                )

        threads = [threading.Thread(target=drive, args=(o,)) for o in (0, 4, 8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        committer.close()
        assert sum(b.size for b in committer.batches) == 12
        engine.maintainer.verify()


class TestProtocol:
    def test_round_trip(self):
        message = {"op": "sql", "q": "SELECT 1", "n": 3}
        assert protocol.decode(protocol.encode(message).strip()) == message

    def test_rejects_garbage(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"not json")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"[1, 2]")

    def test_rejects_oversized(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.encode({"pad": "x" * protocol.MAX_LINE})

    def test_ok_and_error_shapes(self):
        assert protocol.ok(rows=[])["ok"] is True
        err = protocol.error("invalid", "nope")
        assert err == {"ok": False, "error": "invalid", "message": "nope"}
