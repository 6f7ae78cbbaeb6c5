"""Undo is inverted only when it is needed.

The engine's undo journal keeps each applied delta and inverts it only on
rollback; the epoch log inverts a commit's deltas only while a reader holds
a pin. These tests pin what that must not change: a rejected commit still
restores every relation exactly and its rollback charges nothing, and a
pinned reader's history never aliases a delta the committing caller still
holds. State is read through the relations' public reads only.
"""

import pytest

from repro.algebra.operators import Scan
from repro.constraints.assertions import AssertionSystem, AssertionViolation
from repro.ivm.delta import Delta
from repro.storage.database import Database
from repro.storage.undo import UndoLog
from repro.workload.paperdb import DEPT_SCHEMA, EMP_SCHEMA, generate_corporate_db
from repro.workload.transactions import Transaction, paper_transactions
from tests.test_engine import DEPT_CONSTRAINT


def _engine(enforce: bool):
    """The corporate database (20 depts × 5) with DeptConstraint's views."""
    db = Database()
    data = generate_corporate_db(20, 5, seed=7)
    db.create_relation("Dept", DEPT_SCHEMA, data["Dept"], indexes=[["DName"]])
    db.create_relation("Emp", EMP_SCHEMA, data["Emp"], indexes=[["DName"]])
    return AssertionSystem(db, [DEPT_CONSTRAINT], paper_transactions(), enforce=enforce).engine


def _state(db, probe_rows):
    """Every relation as its public reads see it: its (row, count) pairs,
    its row count, each key's probes and each index's buckets — probed at
    the key values of its stored rows and of ``probe_rows`` (relation name
    -> rows), so an entry left behind by a row that is gone shows."""
    state = {}
    for rel in db:
        rows = set(probe_rows.get(rel.name, ())) | {row for row, _ in rel.items()}
        index_of = rel.schema.index_of
        probes = {}
        for key in sorted(sorted(key) for key in rel.schema.keys):
            for row in rows:
                pins = {c: row[index_of(c)] for c in key}
                probes[tuple(key), tuple(pins.values())] = rel.candidates(pins)
        buckets = {}
        for cols in rel.indexes:
            index = rel.index_on(cols)
            values = {tuple(row[index_of(c)] for c in cols) for row in rows}
            buckets[cols] = (index.distinct_keys(), {v: index.probe_free(v) for v in values})
        state[rel.name] = (dict(rel.items()), rel.row_count, probes, buckets)
    return state


def _raise_dept(db, dept: str, by: int) -> Transaction:
    """A >Emp transaction raising every salary in ``dept`` by ``by``."""
    emps = sorted(row for row in db.relation("Emp").rows() if row[1] == dept)
    return Transaction(
        ">Emp", {"Emp": Delta.modification([(e, (e[0], e[1], e[2] + by)) for e in emps])}
    )


def test_rejected_commit_restores_everything_and_its_rollback_charges_nothing(monkeypatch):
    engine, twin = _engine(enforce=True), _engine(enforce=True)
    db = engine.db
    journaled: list[tuple[str, Delta]] = []
    rollback_io = []
    record, rollback = UndoLog.record, UndoLog.rollback

    def spy_record(self, relation, delta):
        journaled.append((relation.name, delta))
        record(self, relation, delta)

    def spy_rollback(self):
        before = db.counter.snapshot()
        rollback(self)
        rollback_io.append(db.counter.snapshot() - before)

    monkeypatch.setattr(UndoLog, "record", spy_record)
    monkeypatch.setattr(UndoLog, "rollback", spy_rollback)
    with pytest.raises(AssertionViolation):
        engine.execute(_raise_dept(db, "dept00000", 10**6))  # over any budget

    views = {name for name, _ in journaled if name.startswith("_view_")}
    assert "Emp" in {name for name, _ in journaled} and len(views) >= 2
    # A keyed view (rows in its key map) and a keyless one (row counts).
    assert {bool(db.relation(name).schema.keys) for name in views} == {True, False}
    probe_rows: dict[str, list] = {}
    for name, delta in journaled:
        rows = probe_rows.setdefault(name, [])
        rows += [*delta.inserts.rows(), *delta.deletes.rows()]
        rows += [row for pair in delta.modifies for row in pair]
    assert _state(db, probe_rows) == _state(twin.db, probe_rows)
    assert rollback_io == [rollback_io[0]] and rollback_io[0].total == 0
    engine.maintainer.verify()


def test_pinned_reader_ignores_edits_to_committed_deltas():
    engine = _engine(enforce=False)
    db = engine.db
    names = [rel.name for rel in db]
    start = {name: db.relation(name).contents() for name in names}
    epoch = engine.pin_epoch()
    try:
        txn = _raise_dept(db, "dept00000", 1)
        result = engine.execute(txn)
        after = {name: db.relation(name).contents() for name in names}
        held = [*txn.deltas.values(), *result.view_deltas.values()]
        assert len(held) >= 3
        # The caller reuses every delta it still holds.
        for delta in held:
            delta.modifies[:] = [(new, new) for _, new in delta.modifies]
            for part in (delta.inserts, delta.deletes):
                for row, n in list(part.items()):
                    part.add(row, -n)
            delta.inserts.add(("junk",))
        for name in names:
            relation = db.relation(name)
            rows, _ = engine.select(Scan(name, relation.schema), epoch=epoch)
            assert rows == start[name], name
            assert engine.select(Scan(name, relation.schema))[0] == after[name], name
    finally:
        engine.unpin_epoch(epoch)
    assert start != after
    engine.maintainer.verify()
