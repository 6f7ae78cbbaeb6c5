"""Crash injection at every WAL / barrier / checkpoint boundary.

The in-process matrix arms a :class:`~tests.fault.CrashInjector` on a
durable engine, runs the deterministic stream until the injected
:class:`~repro.storage.durable.CrashPoint` fires, "reboots" by reopening
the directory, and checks **commit-or-nothing** with two oracles: the
recovered state must be bit-identical to the clean run's state either
*before* or *after* the interrupted event — and for points on a known
side of the commit point (the WAL fsync), to that exact side.

One test kills a real subprocess (``REPRO_CRASH_AT`` → ``os._exit``) to
keep the in-process simulation honest. The satellite regressions for the
commit-path exception-safety sweep (a failed composed batch, poisoned
assertion check, resumable undo) live here too, fault-injected at the
component seams.
"""

import logging
import os
import subprocess
import sys
import tempfile

import pytest

from repro.constraints.assertions import AssertionViolation
from repro.ivm.delta import Delta
from repro.storage.database import Database
from repro.storage.durable import CRASH_EXIT_CODE, CRASH_POINTS, CrashPoint
from repro.storage.relation import StorageError
from repro.storage.wal import WriteAheadLog
from repro.workload.transactions import Transaction
from tests.fault import (
    POLICIES,
    CrashInjector,
    apply_event,
    build_system,
    oracle_states,
    recovered_state,
    snapshot,
    stream_events,
)

SEED = 3
N_TXNS = 8

#: points strictly before the commit point — recovery must yield "before"
BEFORE_COMMIT = {"commit.wal", "commit.wal_commit"}
#: points at/after the commit point — the WAL already holds the commit
#: (the stream's checkpoints are the automatic ones, run after a commit)
AFTER_COMMIT = {"commit.done", "checkpoint.begin", "checkpoint.record", "checkpoint.cleanup"}


def _crash_run(tmp_path, policy, point, nth=1):
    """Run the stream until the injector fires; return (crashed event
    index, injector) — index is None when the point was never reached."""
    db, _system, engine = build_system(str(tmp_path), policy, SEED)
    injector = CrashInjector(db.durable, point, nth=nth)
    for i, event in enumerate(stream_events(engine, SEED, N_TXNS, policy)):
        try:
            apply_event(engine, event)
        except CrashPoint:
            db.close()
            return i, injector
    db.close()
    return None, injector


@pytest.mark.parametrize("point", CRASH_POINTS)
@pytest.mark.parametrize("policy", POLICIES)
def test_crash_anywhere_recovers_to_a_transaction_boundary(
    tmp_path, policy, point
):
    crashed_at, injector = _crash_run(tmp_path, policy, point)
    if crashed_at is None:
        pytest.skip(f"{point} not reached by this stream under {policy}")
    states = oracle_states(policy, SEED, N_TXNS)
    recovered = recovered_state(str(tmp_path), policy, SEED)
    before, after = states[crashed_at], states[crashed_at + 1]
    assert recovered in (before, after), (
        f"crash at {point} (event {crashed_at}) recovered to neither the "
        f"pre- nor the post-event state"
    )
    if point in BEFORE_COMMIT:
        assert recovered == before, f"{point} precedes the commit point"
    if point in AFTER_COMMIT:
        assert recovered == after, f"{point} follows the commit point"


@pytest.mark.parametrize("policy", POLICIES)
def test_recovering_twice_is_idempotent_after_crash(tmp_path, policy):
    crashed_at, _ = _crash_run(tmp_path, policy, "commit.done")
    if crashed_at is None:
        pytest.skip("commit.done not reached")
    first = recovered_state(str(tmp_path), policy, SEED)
    second = recovered_state(str(tmp_path), policy, SEED)
    assert first == second


def test_subprocess_kill_mid_commit_recovers(tmp_path):
    """A real ``os._exit`` mid-commit, not a simulated one."""
    env = dict(os.environ, REPRO_CRASH_AT="commit.done:2", PYTHONPATH="src")
    child = subprocess.run(
        [
            sys.executable, "-m", "tests.fault", "run",
            "--dir", str(tmp_path), "--policy", "enforce",
            "--seed", str(SEED), "--n-txns", str(N_TXNS),
        ],
        env=env, capture_output=True, text=True, cwd=os.path.dirname(os.path.dirname(__file__)),
    )
    assert child.returncode == CRASH_EXIT_CODE, child.stderr
    states = oracle_states("enforce", SEED, N_TXNS)
    recovered = recovered_state(str(tmp_path), "enforce", SEED)
    assert any(recovered == s for s in states)


# -- satellite regressions ------------------------------------------------------------


def test_batch_storage_failure_leaves_no_partial_state_and_riders_commit_alone():
    """A composed commit that dies after applying part of its work rolls
    all of it back before the committer replays the batch rider by rider;
    in the replay each rider commits or fails on its own, so the batch ends
    exactly where committing the surviving riders one at a time ends."""
    from repro.server.commit import GroupCommitter

    db, _system, engine = build_system(None, "batched", SEED)
    kind, txns = next(iter(stream_events(engine, SEED, 6, "batched")))
    assert kind == "batch" and len(txns) == 3
    before = snapshot(db)

    maintainer = engine.maintainer
    real = maintainer.apply
    seen = []

    def poisoned(txn, undo=None, tracer=None):
        seen.append((txn.type_name, snapshot(db)))
        if txn.type_name.startswith("__group"):
            real(txn, undo, tracer)  # part of the work lands, then the failure
            raise StorageError("injected mid-batch storage failure")
        if txn is txns[1]:
            raise StorageError("injected rider storage failure")
        return real(txn, undo, tracer)

    maintainer.apply = poisoned
    committer = GroupCommitter(engine)
    requests = committer.commit_batch(txns)
    del maintainer.apply

    assert committer.batches[-1].replayed
    # The first replayed rider starts from the pre-batch state: the failed
    # composed commit left nothing behind.
    assert seen[1][1] == before, "failed composed commit left partial state"
    assert isinstance(requests[1].error, StorageError)
    assert requests[0].result.committed and requests[0].error is None

    oracle_db, _os, oracle = build_system(None, "immediate", SEED)
    outcomes = [apply_event(oracle, ("txn", txn)) for txn in (txns[0], txns[2])]
    assert ["committed" if r.error is None else "error" for r in (requests[0], requests[2])] == outcomes
    assert snapshot(db) == snapshot(oracle_db), "per-rider replay diverged"
    engine.maintainer.verify()


@pytest.mark.parametrize("policy", ["immediate", "enforce"])
@pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
def test_poisoned_assertion_check_rolls_back(tmp_path, policy, durable):
    """An exception from the violation check itself (a poisoned assertion
    DAG) must roll the applied deltas back: before the fix only the
    maintainer apply sat inside the try, so a raising check stranded
    the base/view updates with the undo log dropped."""
    path = str(tmp_path) if durable else None
    db, _system, engine = build_system(path, policy, SEED)
    before = snapshot(db)
    emp = sorted(db.relation("Emp").contents().rows())[0]
    txn = Transaction(
        ">Emp", {"Emp": Delta.modification([(emp, (emp[0], emp[1], emp[2] + 1))])}
    )

    real = engine.violations

    def poisoned(view_deltas):
        raise RuntimeError("poisoned assertion DAG")

    engine.violations = poisoned
    with pytest.raises(RuntimeError, match="poisoned"):
        engine.execute(txn)
    engine.violations = real

    assert snapshot(db) == before, "poisoned check stranded applied deltas"
    db.close()
    if durable:
        # The durable side discarded the buffered transaction too.
        assert recovered_state(path, policy, SEED) == before

    # The engine is still healthy: the same transaction now commits.
    db2, _s2, engine2 = build_system(path, policy, SEED)
    engine2.execute(txn)
    assert snapshot(db2) != before
    db2.close()


def test_post_barrier_checkpoint_failure_commits_in_both_worlds(
    tmp_path, monkeypatch, caplog
):
    """An I/O failure in the automatic checkpoint — the one step after the
    WAL barrier — used to escape ``commit()``: the engine rolled back a
    transaction the log already held, and the rollback's inverses re-entered
    the failing checkpoint through the auto-commit, leaving a view diverged
    from its base. The failure is now absorbed: the commit is reported,
    the views verify, the reopened directory equals memory, and the next
    interval retries the checkpoint."""
    db, _system, engine = build_system(str(tmp_path), "immediate", SEED, checkpoint_every=1)
    emp = sorted(db.relation("Emp").contents().rows())[0]
    txn = Transaction(
        ">Emp", {"Emp": Delta.modification([(emp, (emp[0], emp[1], emp[2] + 1))])}
    )

    def failing_rotate(self, records, before_swap=None):
        raise OSError("injected checkpoint failure")

    monkeypatch.setattr(WriteAheadLog, "rotate", failing_rotate)
    generation = db.durable.generation
    with caplog.at_level(logging.WARNING, logger="repro.storage.durable"):
        result = engine.execute(txn)  # must not raise: the commit is durable
    assert result.committed
    engine.maintainer.verify()
    assert isinstance(db.durable.checkpoint_error, OSError)
    assert db.durable.generation == generation
    assert [r.event for r in caplog.records] == ["durable.checkpoint_failed"]

    monkeypatch.undo()
    emp = sorted(db.relation("Emp").contents().rows())[1]
    engine.execute(
        Transaction(">Emp", {"Emp": Delta.modification([(emp, (emp[0], emp[1], emp[2] + 1))])})
    )
    assert db.durable.checkpoint_error is None
    assert db.durable.generation == generation + 1
    after = snapshot(db)
    db.close()

    reopened = Database(durable_path=str(tmp_path))
    assert snapshot(reopened) == after
    reopened.close()


def test_enforcing_rejection_still_reports_violation_when_durable(tmp_path):
    """The AssertionViolation path and the generic rollback guard are
    distinct: a rejected transaction raises the violation (not a wrapped
    storage error) and leaves no trace, durable or not."""
    db, _system, engine = build_system(str(tmp_path), "enforce", SEED)
    before = snapshot(db)
    emp = sorted(db.relation("Emp").contents().rows())[0]
    big = Transaction(
        ">Emp",
        {"Emp": Delta.modification([(emp, (emp[0], emp[1], emp[2] + 10_000))])},
    )
    with pytest.raises(AssertionViolation):
        engine.execute(big)
    assert snapshot(db) == before
    db.close()
    assert recovered_state(str(tmp_path), "enforce", SEED) == before
