"""Units for the durable layer: WAL, checkpoints, DurableStore.

The crash-point and policy matrices live in ``test_fault_injection.py``
and ``tests/property/test_crash_recovery.py``; this file covers the
building blocks and the durability invariants that don't need a crash:
round trips, torn-tail healing, checkpoint rotation, recover-twice
idempotence, the logged degradation events, a rejected commit writing
nothing, and the
accounting-neutrality contract (the simulated Section 3.6 I/O numbers are
bit-identical with durability on or off).
"""

import logging
import os
import stat

import pytest

from repro.algebra.multiset import Multiset
from repro.algebra.schema import Schema
from repro.algebra.types import DataType
from repro.constraints.assertions import AssertionViolation
from repro.ivm.delta import Delta
from repro.shell import corporate_world
from repro.sql.dml import dml_transaction
from repro.sql.parser import parse
from repro.storage import durable as durable_mod
from repro.storage.database import Database
from repro.storage.durable import DurableStore
from repro.storage.relation import StoredRelation
from repro.storage.undo import UndoLog
from repro.storage.wal import WalError, WriteAheadLog, decode_delta, encode_delta

SCHEMA = Schema.of(("a", DataType.STRING), ("b", DataType.INT), keys=[["a"]])


# -- WAL -----------------------------------------------------------------------------


def test_wal_append_replay_round_trip(tmp_path):
    wal = WriteAheadLog(str(tmp_path / "wal"))
    records = [{"t": "begin", "txn": "t1"}, {"t": "commit", "txn": "t1"}]
    for r in records:
        wal.append(r)
    wal.sync()
    assert list(wal.replay()) == records
    wal.close()


def test_wal_truncates_torn_tail(tmp_path):
    path = str(tmp_path / "wal")
    wal = WriteAheadLog(path)
    wal.append({"t": "begin", "txn": "t1"})
    wal.sync()
    intact = wal.size
    wal.close()
    with open(path, "ab") as f:
        f.write(b"\xff\xff\x03")  # garbage half-frame
    wal = WriteAheadLog(path)
    assert list(wal.replay()) == [{"t": "begin", "txn": "t1"}]
    assert wal.size == intact  # file healed in place
    wal.close()


def test_wal_delta_codec_round_trips_and_is_deterministic():
    delta = Delta(
        inserts=Multiset({("b", 2): 1, ("a", 1): 2}),
        deletes=Multiset({("c", 3): 1}),
        modifies=[(("d", 4), ("d", 5))],
    )
    encoded = encode_delta(delta)
    assert encoded == encode_delta(delta.inverted().inverted())
    decoded = decode_delta(encoded)
    assert decoded.inserts == delta.inserts
    assert decoded.deletes == delta.deletes
    assert decoded.modifies == delta.modifies
    assert all(isinstance(r, tuple) for r in decoded.inserts.rows())


# -- durable store -------------------------------------------------------------------


def _store(tmp_path, **kw) -> DurableStore:
    kw.setdefault("checkpoint_every", 0)  # explicit checkpoints only
    return DurableStore(str(tmp_path / "d"), **kw)


def _commit(store, rel, delta, txn="t"):
    store.commit(txn, [(rel, delta)])


def _write(db, rel, delta, txn="t"):
    """Apply ``delta`` to a relation of ``db`` and log it, as an engine
    commit does."""
    db.relation(rel).apply_delta(delta)
    if db.durable is not None:
        _commit(db.durable, rel, delta, txn)


def test_durable_store_recovers_committed_deltas(tmp_path):
    store = _store(tmp_path)
    store.on_create("R", SCHEMA)
    _commit(store, "R", Delta.insertion([("a", 1), ("b", 2)]), "t1")
    _commit(store, "R", Delta.modification([(("a", 1), ("a", 7))]), "t2")
    _commit(store, "R", Delta.deletion([("b", 2)]), "t3")
    store.close()

    recovered = _store(tmp_path)
    assert recovered.recovered
    assert recovered.stats.recovered_txns == 3
    assert sorted(recovered.contents("R").items()) == [(("a", 7), 1)]
    recovered.close()


def test_recovering_twice_is_a_no_op(tmp_path):
    path = str(tmp_path / "d")
    db = Database(durable_path=path, checkpoint_every=0)
    db.create_relation("R", SCHEMA, [("a", 1), ("b", 2)])
    db.checkpoint()
    _write(db, "R", Delta.insertion([("c", 3)]))
    db.close()

    def files():
        out = {}
        for name in sorted(os.listdir(path)):
            with open(os.path.join(path, name), "rb") as f:
                out[name] = f.read()
        return out

    first = _store(tmp_path)
    state1, disk1 = sorted(first.contents("R").items()), files()
    first.close()
    second = _store(tmp_path)
    state2, disk2 = sorted(second.contents("R").items()), files()
    second.close()
    assert state1 == state2 == [(("a", 1), 1), (("b", 2), 1), (("c", 3), 1)]
    assert disk1 == disk2


def test_drop_and_index_survive_recovery(tmp_path):
    store = _store(tmp_path)
    store.on_create("R", SCHEMA)
    store.on_create("S", SCHEMA)
    store.on_index("R", ("a",))
    store.on_index("R", ("a",))  # idempotent
    _commit(store, "R", Delta.insertion([("a", 1)]))
    store.on_drop("S")
    store.close()

    recovered = _store(tmp_path)
    catalog = {name: indexes for name, _, indexes in recovered.relations()}
    assert catalog == {"R": [["a"]]}
    recovered.close()


# -- commit-path failure containment --------------------------------------------------


def test_oversized_auto_commit_does_not_wedge_the_store(tmp_path):
    """Rows are not bound by any page size: a 5000-byte row commits as a
    transaction of its own, and the store keeps committing after it."""
    store = _store(tmp_path)
    store.on_create("R", SCHEMA)
    _commit(store, "R", Delta.insertion([("x" * 5000, 1)]), "big")
    _commit(store, "R", Delta.insertion([("a", 1)]))
    store.close()

    recovered = _store(tmp_path)
    assert sorted(recovered.contents("R").rows()) == [("a", 1), ("x" * 5000, 1)]
    recovered.close()


def test_oversized_row_does_not_brick_the_directory(tmp_path):
    """A 5000-byte row commits, survives a checkpoint and reopens intact."""
    path = str(tmp_path / "db")
    db = Database(durable_path=path, checkpoint_every=0)
    db.create_relation("R", SCHEMA, [("a", 1)])
    _write(db, "R", Delta.insertion([("x" * 5000, 2)]))
    db.checkpoint()
    db.close()

    db2 = Database(durable_path=path, checkpoint_every=0)
    assert sorted(db2.relation("R").contents().rows()) == [("a", 1), ("x" * 5000, 2)]
    db2.close()


def test_recovery_skips_and_reports_unapplyable_committed_delta(tmp_path, caplog):
    """Defense in depth: a committed delta recovery cannot apply (here a
    forged delete of an absent row) is skipped whole, reported and
    logged, not allowed to fail every open."""
    store = _store(tmp_path)
    store.on_create("R", SCHEMA)
    _commit(store, "R", Delta.insertion([("a", 1)]), "t1")
    store.close()
    wal = WriteAheadLog(os.path.join(str(tmp_path / "d"), "wal"))
    wal.append({"t": "begin", "txn": "forged"})
    for delta in (Delta.insertion([("b", 2)]), Delta.deletion([("ghost", 0)])):
        wal.append({"t": "delta", "txn": "forged", "rel": "R", **encode_delta(delta)})
    wal.append({"t": "commit", "txn": "forged"})
    wal.sync()
    wal.close()

    with caplog.at_level(logging.WARNING, logger="repro.storage.durable"):
        recovered = _store(tmp_path)
    assert len(recovered.recovery_errors) == 1
    assert "forged" in recovered.recovery_errors[0]
    assert recovered.stats.recovered_txns == 1  # t1 only
    # All or nothing: the forged transaction's valid insert is gone too.
    assert sorted(recovered.contents("R").rows()) == [("a", 1)]
    assert [(r.event, r.txn) for r in caplog.records] == [("durable.recovery_skip", "forged")]
    recovered.close()


def test_torn_tail_truncation_is_logged(tmp_path, caplog):
    store = _store(tmp_path)
    store.on_create("R", SCHEMA)
    _commit(store, "R", Delta.insertion([("a", 1)]), "t1")
    store.close()
    with open(os.path.join(str(tmp_path / "d"), "wal"), "ab") as f:
        f.write(b"\xff\xff\x03")  # garbage half-frame

    with caplog.at_level(logging.WARNING, logger="repro.storage.durable"):
        recovered = _store(tmp_path)
    assert [(r.event, r.bytes_dropped) for r in caplog.records] == [("durable.torn_tail", 3)]
    assert sorted(recovered.contents("R").rows()) == [("a", 1)]
    recovered.close()


def test_checkpoint_rotates_the_wal(tmp_path, monkeypatch):
    """The log must not grow without bound: a checkpoint cuts it down to
    one header plus ``rows`` chunks, and replay starts there."""
    monkeypatch.setattr(durable_mod, "CHECKPOINT_CHUNK_ROWS", 4)
    path = str(tmp_path / "d")
    db = Database(durable_path=path, checkpoint_every=0)
    db.create_relation("R", SCHEMA, indexes=[["b"]])
    db.create_relation("S", SCHEMA, [("s", 0)])
    for i in range(10):
        _write(db, "R", Delta.insertion([(f"r{i}", i)]))
    before = db.durable._wal.size
    assert db.checkpoint() == 11
    assert db.durable._wal.size < before
    assert db.durable.generation == 1
    records = list(db.durable._wal.replay())
    assert [r["t"] for r in records] == ["checkpoint"] + ["rows"] * 4
    assert records[0]["gen"] == 1
    assert records[0]["rels"]["R"]["indexes"] == [["b"]]
    assert [len(r["rows"]) for r in records[1:]] == [4, 4, 2, 1]
    _write(db, "R", Delta.insertion([("tail", 99)]))
    db.close()

    recovered = _store(tmp_path)
    assert recovered.generation == 1
    assert recovered.stats.recovered_txns == 1  # only the post-rotation tail
    assert recovered.contents("R").total() == 11
    assert {name: indexes for name, _, indexes in recovered.relations()} == {
        "R": [["b"]],
        "S": [],
    }
    recovered.close()


def test_rotation_fsyncs_the_directory_after_the_replace(tmp_path, monkeypatch):
    """Without a directory fsync a power loss can revert the rename — and
    every commit appended to the new log with it."""
    wal = WriteAheadLog(str(tmp_path / "wal"))
    wal.append({"t": "begin", "txn": "t1"})
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
        real_fsync(fd)

    def replace(src, dst):
        events.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    wal.rotate([{"t": "checkpoint", "gen": 1, "rels": {}}])
    assert events == ["file", "replace", "dir"]
    wal.close()


def test_unattached_store_refuses_to_checkpoint(tmp_path):
    """A bare store knows no live relations: an empty snapshot would
    erase the log, so it refuses."""
    store = _store(tmp_path)
    store.on_create("R", SCHEMA)
    _commit(store, "R", Delta.insertion([("a", 1)]), "t1")
    with pytest.raises(WalError, match="no relations attached"):
        store.checkpoint()
    store.close()

    recovered = _store(tmp_path)
    assert sorted(recovered.contents("R").rows()) == [("a", 1)]
    recovered.close()


def test_recovery_discards_stale_rotation_sidecar(tmp_path):
    store = _store(tmp_path)
    store.on_create("R", SCHEMA)
    _commit(store, "R", Delta.insertion([("a", 1)]), "t1")
    store.close()
    sidecar = os.path.join(str(tmp_path / "d"), "wal.new")
    with open(sidecar, "wb") as f:
        f.write(b"\x07garbage from a crashed rotation")

    recovered = _store(tmp_path)
    assert not os.path.exists(sidecar)
    assert sorted(recovered.contents("R").rows()) == [("a", 1)]
    recovered.close()


# -- Database integration -------------------------------------------------------------


def test_database_durable_round_trip(tmp_path):
    path = str(tmp_path / "db")
    db = Database(durable_path=path, checkpoint_every=0)
    assert not db.recovered
    db.create_relation("R", SCHEMA, [("a", 1), ("b", 2)], indexes=[["a"]])
    _write(db, "R", Delta.modification([(("b", 2), ("b", 9))]))
    expected = sorted(db.relation("R").contents().items())
    db.close()

    db2 = Database(durable_path=path, checkpoint_every=0)
    assert db2.recovered
    assert sorted(db2.relation("R").contents().items()) == expected
    assert db2.relation("R").indexes and list(db2.relation("R").indexes)[0]
    db2.close()


@pytest.mark.parametrize("ending", ["close", "kill"])
def test_create_survives_the_checkpoint_its_initial_load_triggers(tmp_path, ending):
    """With ``checkpoint_every=1`` the initial rows' commit runs the
    automatic checkpoint; the new relation must already be in the map it
    snapshots, or the rotation cuts its create and rows out of the log.
    ``kill`` reopens with no clean close and no later commit."""
    path = str(tmp_path / "db")
    db = Database(durable_path=path, checkpoint_every=1)
    db.create_relation("R", SCHEMA, [("a", 1), ("b", 2)], indexes=[["b"]])
    assert db.durable.generation == 1
    if ending == "close":
        db.close()
    else:
        db.durable.freeze()

    db2 = Database(durable_path=path, checkpoint_every=1)
    assert db2.names == ("R",)
    assert sorted(db2.relation("R").contents().rows()) == [("a", 1), ("b", 2)]
    assert db2.relation("R").indexes == db.relation("R").indexes
    db2.close()


def test_rejected_durable_commit_writes_nothing(tmp_path):
    """A commit the enforcing engine refuses never reaches the log: the
    undo journal goes to the WAL only once the assertion check passes, and
    rolling it back writes nothing."""
    path = str(tmp_path / "db")
    db, _system, engine = corporate_world(
        "enforce", n_depts=4, emps_per_dept=3, durable_path=path
    )
    wal = os.path.join(path, "wal")
    # One accepted write first, so whatever a first commit adds (lazily
    # built indexes) is already in the log.
    engine.execute(
        dml_transaction(
            [parse("UPDATE Emp SET Salary = Salary + 1 WHERE DName = 'dept00001'")],
            db,
            "raise",
        )
    )
    with open(wal, "rb") as f:
        before = f.read()
    with pytest.raises(AssertionViolation):
        engine.execute(
            dml_transaction(
                [parse("UPDATE Emp SET Salary = Salary + 1000000 WHERE DName = 'dept00000'")],
                db,
                "overspend",
            )
        )
    db.close()  # flushes anything the refused commit appended
    with open(wal, "rb") as f:
        assert f.read() == before


def test_legacy_undo_and_abort_records_recover_to_the_same_state(tmp_path):
    """Older logs journaled a rolled-back transaction's inverse deltas as
    ``undo`` records closed by ``abort``; replay skips them."""
    store = _store(tmp_path)
    store.on_create("R", SCHEMA)
    _commit(store, "R", Delta.insertion([("a", 1), ("b", 2)]), "t1")
    store.close()
    clean = _store(tmp_path)
    expected = sorted(clean.contents("R").items())
    clean.close()

    wal = WriteAheadLog(os.path.join(str(tmp_path / "d"), "wal"))
    for inverse in (Delta.deletion([("z", 9)]), Delta.modification([(("a", 5), ("a", 1))])):
        wal.append({"t": "undo", "txn": "t2", "rel": "R", **encode_delta(inverse)})
    wal.append({"t": "abort", "txn": "t2"})
    wal.sync()
    wal.close()

    recovered = _store(tmp_path)
    assert sorted(recovered.contents("R").items()) == expected
    assert recovered.recovery_errors == []
    assert recovered.stats.recovered_txns == 1
    recovered.close()


def test_page_store_directory_is_refused_with_a_clear_error(tmp_path):
    """A directory from the older page-store format has a checkpoint
    record with no relation catalog; opening it names the problem."""
    path = tmp_path / "d"
    path.mkdir()
    wal = WriteAheadLog(str(path / "wal"))
    wal.append({"t": "checkpoint", "gen": 3, "meta": {}, "page_map": {}})
    wal.sync()
    wal.close()
    with pytest.raises(WalError, match="page-store format"):
        Database(durable_path=str(path))


def test_failed_create_leaves_no_phantom_relation(tmp_path):
    """The create record used to hit the WAL before row validation, so a
    failed ``create_relation`` resurrected as an empty relation on
    recovery that the live run never had."""
    path = str(tmp_path / "db")
    db = Database(durable_path=path, checkpoint_every=0)
    with pytest.raises(Exception):
        db.create_relation("Bad", SCHEMA, [("a", 1, "extra-column")])
    db.create_relation("Good", SCHEMA, [("a", 1)], indexes=[["a"]])
    assert db.names == ("Good",)
    db.close()

    db2 = Database(durable_path=path, checkpoint_every=0)
    assert db2.names == ("Good",)
    assert sorted(db2.relation("Good").contents().rows()) == [("a", 1)]
    db2.close()


def test_durability_is_accounting_neutral(tmp_path):
    """The simulated Section 3.6 numbers never see the durable layer."""

    def run(durable_path):
        db = Database(durable_path=durable_path, checkpoint_every=2)
        db.create_relation("R", SCHEMA, [(f"r{i}", i) for i in range(30)])
        db.relation("R").create_index(["a"])
        _write(db, "R", Delta.insertion([("x", 1)]))
        _write(db, "R", Delta.deletion([("r0", 0)]))
        stats = db.counter.snapshot()
        db.close()
        return stats

    baseline = run(None)
    durable = run(str(tmp_path / "db"))
    assert durable == baseline
    assert durable.total > 0  # the comparison is not vacuous


def test_undo_rollback_retains_entry_on_apply_failure():
    """Satellite: a mid-rollback apply failure must not lose the entry.

    The old pop-before-apply loop dropped the entry it was undoing, so a
    failure left the log missing exactly the delta that was never rolled
    back. Peek-apply-pop keeps it, and the rollback is resumable."""
    rel = StoredRelation("R", SCHEMA)
    rel.load([("a", 1)])
    undo = UndoLog()
    applied = Delta.insertion([("b", 2)])
    rel.apply_delta(applied)
    undo.record(rel, applied)
    # Poison the newest entry: its inverse deletes a row that isn't there.
    undo.record(rel, Delta.insertion([("ghost", 0)]))

    with pytest.raises(Exception):
        undo.rollback()
    assert len(undo) == 2  # nothing lost, including the failing entry

    # Repair the precondition and resume: the rollback completes.
    rel.apply_delta(Delta.insertion([("ghost", 0)]))
    undo.rollback()
    assert len(undo) == 0
    assert sorted(rel.contents().rows()) == [("a", 1)]


def test_environment_does_not_switch_durability(monkeypatch, tmp_path):
    """``durable_path=`` and ``wal_sync=`` are the only switches: the old
    ``REPRO_DURABLE`` / ``REPRO_WAL_SYNC`` aliases are not read."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_DURABLE", "1")
    monkeypatch.setenv("REPRO_WAL_SYNC", "full")
    assert Database().durable is None
    store = DurableStore(str(tmp_path / "store"))
    assert store.wal_sync == "normal"
    store.close()
    assert os.listdir(tmp_path) == ["store"]
