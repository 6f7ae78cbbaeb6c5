"""Property-based tests: group commit is observationally serial.

An N-client run through the :class:`GroupCommitter` must be bit-identical
to *some* serial schedule of the same transactions — and the committer
tells us which one: its recorded :class:`BatchRecord` sequence. Replaying
those records through a fresh identical engine on one thread
(:func:`replay_batches`) must reproduce

* every base relation and materialized view, bit-exactly,
* each batch's shape (size, empty/replayed flags) and each rider's
  committed/rejected outcome,
* the shared ``IOCounter`` ledger, exactly,

across the immediate and enforcing engines × execution backends, with the
durable WAL shadow on or off. A degenerate-batch law pins ``max_batch=1``
to plain sequential ``run_transactions``. SQL riders, derived on the
commit thread against the rows the riders ahead of them leave, are held
to the same oracle on rows every client shares.
"""

import random
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.compile import set_default_backend
from repro.constraints.assertions import AssertionSystem
from repro.ivm.delta import Delta
from repro.server.commit import GroupCommitter, replay_batches
from repro.sql.dml import StatementRider
from repro.sql.parser import parse
from repro.storage.database import Database
from repro.workload.paperdb import DEPT_SCHEMA, EMP_SCHEMA
from repro.workload.runner import run_concurrent_transactions, run_transactions
from repro.workload.transactions import Transaction, paper_transactions

DEPT_CONSTRAINT = """
CREATE ASSERTION DeptConstraint CHECK (NOT EXISTS (
    SELECT Dept.DName FROM Emp, Dept
    WHERE Dept.DName = Emp.DName
    GROUPBY Dept.DName, Budget
    HAVING SUM(Salary) > Budget))
"""

DEPTS = tuple(f"dp{i}" for i in range(6))

BACKENDS = ["interpreted", "compiled"]


@pytest.fixture(autouse=True)
def _restore_backend():
    yield
    set_default_backend("compiled")


def _make_engine(seed, policy, durable_path=None):
    rng = random.Random(seed)
    db = Database(durable_path=durable_path)
    depts = [(name, "m", rng.randint(200, 900)) for name in DEPTS]
    emps = [
        (f"e{i}", DEPTS[i % len(DEPTS)], rng.randint(5, 30))
        for i in range(len(DEPTS) * 2)
    ]
    db.create_relation("Dept", DEPT_SCHEMA, depts, indexes=[["DName"]])
    db.create_relation("Emp", EMP_SCHEMA, emps, indexes=[["DName"]])
    system = AssertionSystem(
        db, [DEPT_CONSTRAINT], paper_transactions(), enforce=(policy == "enforce")
    )
    return system.engine, system


def _client_streams(seed, n_clients, per_client):
    """Disjoint per-client slices: client ``i`` owns the departments (and
    their employees) with index ≡ i mod n_clients, updating them from a
    logical mirror — live contents can't be read while commits ride the
    queue. Disjointness makes every interleaving compose to one net state;
    conflict behaviour itself is covered by the recorded-schedule oracle."""
    streams = []
    for i in range(n_clients):
        rng = random.Random(seed * 31 + i)
        # Rebuild the seed rows exactly as _make_engine's rng drew them,
        # then keep this client's slice.
        world = random.Random(seed)
        all_depts = [(name, "m", world.randint(200, 900)) for name in DEPTS]
        all_emps = [
            (f"e{k}", DEPTS[k % len(DEPTS)], world.randint(5, 30))
            for k in range(len(DEPTS) * 2)
        ]
        depts = [d for j, d in enumerate(all_depts) if j % n_clients == i]
        my_names = {d[0] for d in depts}
        emps = [e for e in all_emps if e[1] in my_names]
        txns = []
        for t in range(per_client):
            kind = rng.random()
            if kind < 0.4 and emps:
                old = rng.choice(emps)
                new = (old[0], old[1], old[2] + rng.randint(1, 8))
                emps[emps.index(old)] = new
                txns.append(
                    Transaction(">Emp", {"Emp": Delta.modification([(old, new)])})
                )
            elif kind < 0.6 and depts:
                old = rng.choice(depts)
                new = (old[0], old[1], max(old[2] - rng.randint(10, 120), 0))
                depts[depts.index(old)] = new
                txns.append(
                    Transaction(">Dept", {"Dept": Delta.modification([(old, new)])})
                )
            elif kind < 0.8 and my_names:
                row = (f"h{i}_{t}", rng.choice(sorted(my_names)), rng.randint(1, 25))
                emps.append(row)
                txns.append(Transaction("Hire", {"Emp": Delta.insertion([row])}))
            elif emps:
                row = rng.choice(emps)
                emps.remove(row)
                txns.append(Transaction("Fire", {"Emp": Delta.deletion([row])}))
        streams.append(txns)
    return streams


def _state(engine):
    maintainer = engine.maintainer
    state = {name: engine.db.relation(name).contents() for name in ("Emp", "Dept")}
    for gid in sorted(maintainer.marking):
        if not maintainer.memo.group(gid).is_leaf:
            state[f"view:{gid}"] = maintainer.view_contents(gid)
    return state


def _batch_signature(records):
    """Shape + per-rider outcome of a batch sequence. Rider outcomes are
    matched by transaction identity (live and oracle share the objects)."""
    out = []
    for record in records:
        committed = {id(r.txn) for r in record.results}
        out.append(
            (
                record.size,
                record.empty,
                record.replayed,
                tuple(id(t) in committed for t in record.txns),
            )
        )
    return out


class TestGroupCommitIsSerial:
    @pytest.mark.parametrize("policy", ["immediate", "enforce"])
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=3, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_clients=st.integers(min_value=2, max_value=4),
        per_client=st.integers(min_value=1, max_value=5),
    )
    def test_concurrent_equals_recorded_serial_schedule(
        self, policy, backend, seed, n_clients, per_client
    ):
        set_default_backend(backend)
        streams = _client_streams(seed, n_clients, per_client)
        engine, system = _make_engine(seed, policy)
        report, batches = run_concurrent_transactions(
            engine, streams, max_batch=4
        )
        system.maintainer.verify()

        oracle, _ = _make_engine(seed, policy)
        oracle_records = replay_batches(oracle, batches)

        assert _state(oracle) == _state(engine)
        assert _batch_signature(oracle_records) == _batch_signature(batches)
        assert oracle.db.counter.snapshot() == engine.db.counter.snapshot()
        # A client whose slice runs out of employees draws fewer than
        # per_client transactions; count what the streams actually hold.
        assert report.submitted == sum(len(stream) for stream in streams)

    @pytest.mark.parametrize("policy", ["immediate", "enforce"])
    @settings(max_examples=2, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_clients=st.integers(min_value=2, max_value=3),
        per_client=st.integers(min_value=1, max_value=4),
    )
    def test_durable_concurrent_equals_serial_schedule(
        self, policy, seed, n_clients, per_client
    ):
        streams = _client_streams(seed, n_clients, per_client)
        with tempfile.TemporaryDirectory() as live_dir:
            engine, _ = _make_engine(seed, policy, durable_path=live_dir)
            _, batches = run_concurrent_transactions(engine, streams, max_batch=4)
            live_state = _state(engine)
            live_io = engine.db.counter.snapshot()
            engine.db.close()
        with tempfile.TemporaryDirectory() as oracle_dir:
            oracle, _ = _make_engine(seed, policy, durable_path=oracle_dir)
            oracle_records = replay_batches(oracle, batches)
            assert _state(oracle) == live_state
            assert _batch_signature(oracle_records) == _batch_signature(batches)
            assert oracle.db.counter.snapshot() == live_io
            oracle.db.close()

    @settings(max_examples=3, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        per_client=st.integers(min_value=1, max_value=6),
    )
    def test_max_batch_one_equals_sequential(self, seed, per_client):
        """A committer that never groups is plain serial execution."""
        streams = _client_streams(seed, 1, per_client)
        concurrent, _ = _make_engine(seed, "immediate")
        report, batches = run_concurrent_transactions(
            concurrent, streams, max_batch=1
        )
        sequential, _ = _make_engine(seed, "immediate")
        seq_report = run_transactions(sequential, list(streams[0]))
        assert _state(sequential) == _state(concurrent)
        assert sequential.db.counter.snapshot() == concurrent.db.counter.snapshot()
        assert seq_report.committed == report.committed
        assert all(record.size == 1 for record in batches)


def _sql_streams(seed, n_clients, per_client):
    """Per-client SQL riders over a few hot rows that every client shares:
    ``e0``/``e6`` in ``dp0`` and ``dp0`` itself. The pool holds a rider
    whose derivation fails (a type error) and one that pushes ``dp0`` over
    budget — an assertion violator on an enforcing engine."""
    pool = [
        "UPDATE Emp SET Salary = Salary + {k} WHERE EName = 'e0'",
        "UPDATE Emp SET Salary = Salary + {k} WHERE EName = 'e6'",
        "UPDATE Emp SET Salary = Salary - {k} WHERE DName = 'dp0' AND Salary > 10",
        "UPDATE Dept SET Budget = Budget - {k} WHERE DName = 'dp0'",
        "UPDATE Emp SET Salary = Salary + 5000 WHERE EName = 'e0'",
        "UPDATE Emp SET Salary = 'abc' WHERE EName = 'e6'",
        "INSERT INTO Emp VALUES ('{name}', 'dp0', {k})",
        "DELETE FROM Emp WHERE EName = 'e6'",
    ]
    streams = []
    for client in range(n_clients):
        rng = random.Random(seed * 17 + client)
        riders = []
        for t in range(per_client):
            name = f"s{client}_{t}"
            statements = [
                rng.choice(pool).format(k=rng.randint(1, 8), name=f"h{name}_{i}")
                for i in range(rng.choice((1, 1, 2)))
            ]
            riders.append(StatementRider(name, tuple(parse(s) for s in statements)))
        streams.append(riders)
    return streams


def _rider_signature(records):
    """Shape + per-rider outcome, by rider name: committed, rejected (its
    transaction was derived but did not commit) or failed derivation."""
    out = []
    for record in records:
        committed = {r.txn.type_name for r in record.results}
        derived = {t.type_name for t in record.txns}
        out.append(
            (
                record.empty,
                record.replayed,
                tuple(
                    "committed" if n in committed else "rejected" if n in derived
                    else "failed"
                    for n in record.txn_names
                ),
            )
        )
    return out


class TestStatementRidersAreSerial:
    @pytest.mark.parametrize("policy", ["immediate", "enforce"])
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_clients=st.integers(min_value=2, max_value=4),
        per_client=st.integers(min_value=2, max_value=6),
    )
    def test_sql_riders_equal_recorded_serial_schedule(
        self, policy, seed, n_clients, per_client
    ):
        """SQL riders derived on the commit thread, hitting the same rows
        from concurrent clients: the live run equals the replay of its
        recorded batches in bases, views, outcomes and the I/O ledger."""
        streams = _sql_streams(seed, n_clients, per_client)
        engine, system = _make_engine(seed, policy)
        committer = GroupCommitter(engine, max_batch=4)
        # Every client's first rider is queued before the commit thread
        # starts, so the first batch holds riders on the same rows.
        first = [committer.submit(stream[0]) for stream in streams]
        committer.start()

        def drive(stream, request):
            for rider in stream[1:] + [None]:
                try:
                    request.wait(30)
                except Exception:  # noqa: BLE001 - outcomes are checked below
                    pass
                if rider is not None:
                    request = committer.submit(rider)

        threads = [
            threading.Thread(target=drive, args=(stream, request))
            for stream, request in zip(streams, first)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        committer.close()
        system.maintainer.verify()
        batches = committer.batches
        assert sum(b.size for b in batches) == n_clients * per_client

        oracle, _ = _make_engine(seed, policy)
        oracle_records = replay_batches(oracle, batches)
        assert _state(oracle) == _state(engine)
        assert _rider_signature(oracle_records) == _rider_signature(batches)
        assert oracle.db.counter.snapshot() == engine.db.counter.snapshot()
