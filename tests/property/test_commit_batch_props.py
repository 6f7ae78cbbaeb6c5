"""Property: a batch committed through ``GroupCommitter.commit_batch`` is
the serial run of its statements.

A random read-modify-write SQL sequence over Emp/Dept — raises, department
raises and cuts, transfers, hires (some reusing a name that is taken, so
the rider fails on the key) and fires — is cut into random chunks, and
each chunk goes through an unstarted committer's ``commit_batch``:

* on a report-only engine the final base relations and every view equal
  the serial oracle's, where each statement is derived and executed alone
  (a failing statement changes nothing), and ``maintainer.verify()``
  passes;
* on an enforcing engine no accepted state holds a violation, and
  :func:`~repro.server.commit.replay_batches` reproduces the run bit for
  bit — state, batch shapes, rider outcomes and the I/O ledger.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.assertions import AssertionSystem
from repro.server.commit import GroupCommitter, replay_batches
from repro.sql.dml import StatementRider, dml_transaction
from repro.sql.parser import parse
from repro.storage.database import Database
from repro.storage.relation import StorageError
from repro.workload.paperdb import DEPT_SCHEMA, EMP_SCHEMA
from repro.workload.transactions import paper_transactions
from tests.test_engine import DEPT_CONSTRAINT

DEPTS = tuple(f"dp{i}" for i in range(4))
#: the original employees plus two hire names; hiring a taken name fails
NAMES = tuple(f"e{i}" for i in range(8)) + ("h0", "h1")

statements = st.one_of(
    st.builds(
        "UPDATE Emp SET Salary = Salary + {} WHERE EName = '{}'".format,
        st.integers(1, 40), st.sampled_from(NAMES),
    ),
    st.builds(
        "UPDATE Emp SET Salary = Salary - {} WHERE DName = '{}'".format,
        st.integers(1, 5), st.sampled_from(DEPTS),
    ),
    st.builds(
        "UPDATE Dept SET Budget = Budget {} WHERE DName = '{}'".format,
        st.sampled_from(["+ 25", "- 40"]), st.sampled_from(DEPTS),
    ),
    st.builds(
        "UPDATE Emp SET DName = '{}' WHERE EName = '{}'".format,
        st.sampled_from(DEPTS), st.sampled_from(NAMES),
    ),
    st.builds(
        "INSERT INTO Emp VALUES ('{}', '{}', {})".format,
        st.sampled_from(NAMES), st.sampled_from(DEPTS), st.integers(1, 30),
    ),
    st.builds("DELETE FROM Emp WHERE EName = '{}'".format, st.sampled_from(NAMES)),
)


def _world(seed, enforce):
    rng = random.Random(seed)
    db = Database()
    db.create_relation(
        "Dept",
        DEPT_SCHEMA,
        [(name, "m", rng.randint(80, 140)) for name in DEPTS],
        indexes=[["DName"]],
    )
    db.create_relation(
        "Emp",
        EMP_SCHEMA,
        [(f"e{i}", DEPTS[i % len(DEPTS)], rng.randint(5, 30)) for i in range(8)],
        indexes=[["DName"]],
    )
    return AssertionSystem(db, [DEPT_CONSTRAINT], paper_transactions(), enforce=enforce)


def _state(system):
    maintainer = system.maintainer
    state = {name: system.db.relation(name).contents() for name in ("Emp", "Dept")}
    for gid in sorted(maintainer.marking):
        if not maintainer.memo.group(gid).is_leaf:
            state[f"view:{gid}"] = maintainer.view_contents(gid)
    return state


def _riders(sqls):
    return [StatementRider(f"s{i}", (parse(sql),)) for i, sql in enumerate(sqls)]


def _chunks(riders, sizes):
    start = 0
    for size in sizes:
        if start >= len(riders):
            return
        yield riders[start : start + size]
        start += size
    if start < len(riders):
        yield riders[start:]


def _signature(records):
    return [
        (
            record.size,
            record.empty,
            record.replayed,
            tuple(r.txn.type_name for r in record.results),
        )
        for record in records
    ]


class TestCommitBatchIsSerial:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        sqls=st.lists(statements, min_size=1, max_size=14),
        sizes=st.lists(st.integers(1, 5), min_size=1, max_size=6),
    )
    def test_batches_equal_the_serial_oracle(self, seed, sqls, sizes):
        system = _world(seed, enforce=False)
        committer = GroupCommitter(system.engine)
        for chunk in _chunks(_riders(sqls), sizes):
            committer.commit_batch(chunk)
        system.maintainer.verify()

        oracle = _world(seed, enforce=False)
        for i, sql in enumerate(sqls):
            txn = dml_transaction([parse(sql)], oracle.db, f"s{i}")
            try:
                oracle.engine.execute(txn)
            except StorageError:
                pass  # the statement fails alone, as its rider did
        assert _state(system) == _state(oracle)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        sqls=st.lists(statements, min_size=1, max_size=14),
        sizes=st.lists(st.integers(1, 5), min_size=1, max_size=6),
    )
    def test_enforced_batches_hold_no_violation_and_replay_exactly(
        self, seed, sqls, sizes
    ):
        system = _world(seed, enforce=True)
        assert system.all_satisfied()
        committer = GroupCommitter(system.engine)
        for chunk in _chunks(_riders(sqls), sizes):
            committer.commit_batch(chunk)
            assert system.all_satisfied(), "an accepted state holds a violation"
        system.maintainer.verify()

        oracle = _world(seed, enforce=True)
        records = replay_batches(oracle.engine, committer.batches)
        assert _state(oracle) == _state(system)
        assert _signature(records) == _signature(committer.batches)
        assert oracle.db.counter.snapshot() == system.db.counter.snapshot()
