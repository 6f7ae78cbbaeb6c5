"""Regression: batching must never lose an accepted write.

The engine used to carry a second batching layer beside the group
committer: a deferral queue that SQL derivation never read. Two same-row
``UPDATE … SET Salary = Salary + 1`` statements both derived against the
stored row, both were accepted as ``deferred``, and the flush failed with
``modify of absent tuple`` — the salary stayed where it was, the failed
batch went back to the head of the queue, and every later write behind it
was stuck. Batching is now ``GroupCommitter.commit_batch`` alone: each
statement rider derives against the net delta of the riders ahead of it,
and a batch whose commit fails is replayed rider by rider.
"""

import pytest

from repro.cli import main
from repro.server.commit import GroupCommitter
from repro.shell import corporate_world
from repro.sql.dml import StatementRider
from repro.sql.parser import parse
from repro.storage.relation import StorageError

RAISE = "UPDATE Emp SET Salary = Salary + 1 WHERE EName = '{}'"


def _rider(name, sql):
    return StatementRider(name, (parse(sql),))


def _salary(db, name):
    (row,) = [r for r in db.relation("Emp").contents().rows() if r[0] == name]
    return row[2]


@pytest.fixture(scope="module")
def world():
    return corporate_world("immediate", n_depts=5, emps_per_dept=4)


def test_deferred_policy_is_refused():
    with pytest.raises(ValueError, match="deferred"):
        corporate_world("deferred")
    for argv in (
        ["run", "--policy", "deferred"],
        ["serve", "--policy", "deferred"],
        ["run", "--batch-size", "10"],
        ["serve", "--batch-size", "10"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_same_row_updates_in_one_batch_both_apply(world):
    db, system, engine = world
    name = "emp00000_000"
    before = _salary(db, name)
    requests = GroupCommitter(engine).commit_batch(
        [_rider("a", RAISE.format(name)), _rider("b", RAISE.format(name))]
    )
    assert [r.error for r in requests] == [None, None]
    assert _salary(db, name) == before + 2
    system.maintainer.verify()


def test_poisoned_rider_fails_alone_and_a_later_rider_commits(world):
    db, system, engine = world
    victim, other = "emp00000_000", "emp00001_000"
    before = _salary(db, other)
    committer = GroupCommitter(engine)
    requests = committer.commit_batch(
        [
            _rider("dup", f"INSERT INTO Emp VALUES ('{victim}', 'dept00000', 1)"),
            _rider("raise", RAISE.format(other)),
        ]
    )
    assert committer.batches[-1].replayed
    assert isinstance(requests[0].error, StorageError)
    assert requests[1].error is None and requests[1].result.committed
    assert _salary(db, other) == before + 1
    # Nothing is left queued behind the failure: the next batch commits.
    (request,) = committer.commit_batch([_rider("again", RAISE.format(other))])
    assert request.error is None
    assert _salary(db, other) == before + 2
    system.maintainer.verify()


def test_commit_batch_is_for_an_unstarted_committer(world):
    from repro.engine import EngineError

    _db, _system, engine = world
    committer = GroupCommitter(engine).start()
    try:
        with pytest.raises(EngineError):
            committer.commit_batch([_rider("x", RAISE.format("emp00002_000"))])
    finally:
        committer.close()
