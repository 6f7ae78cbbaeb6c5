"""Property-based tests: the CommitCache is observationally invisible.

For random update streams (inserts, deletes, modifications — including
group-moving department transfers, which force the aggregate-recompute
fetch path the cache serves), under the immediate and enforcing engines and
the ``batched`` cell (chunks of 3 through ``GroupCommitter.commit_batch``)
on both execution backends, a run with the commit cache ON must be
bit-identical to a run with it OFF in everything storage-visible:

* base relation contents,
* every materialized view,
* the per-commit view deltas the engine returns,
* which transactions an enforcing engine rejects (rollback results).

Measured page I/O may only decrease — asserted as ``io_on <= io_off``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.compile import set_default_backend
from repro.algebra.multiset import Multiset
from repro.constraints.assertions import AssertionSystem, AssertionViolation
from repro.ivm.delta import Delta
from repro.server.commit import GroupCommitter
from repro.storage.database import Database
from repro.workload.paperdb import DEPT_SCHEMA, EMP_SCHEMA
from repro.workload.transactions import Transaction, paper_transactions

DEPT_CONSTRAINT = """
CREATE ASSERTION DeptConstraint CHECK (NOT EXISTS (
    SELECT Dept.DName FROM Emp, Dept
    WHERE Dept.DName = Emp.DName
    GROUPBY Dept.DName, Budget
    HAVING SUM(Salary) > Budget))
"""

DEPTS = tuple(f"dp{i}" for i in range(3))

#: riders per composed commit in the ``batched`` cell
BATCH = 3

KINDS = ("raise", "big_raise", "transfer", "hire", "fire", "budget_cut")


def _make_txn(kind: str, emps: list, depts: list, rng: random.Random) -> Transaction | None:
    if kind == "raise" and emps:
        old = rng.choice(emps)
        new = (old[0], old[1], old[2] + rng.randint(1, 5))
        return Transaction(">Emp", {"Emp": Delta.modification([(old, new)])})
    if kind == "big_raise" and emps:
        old = rng.choice(emps)
        new = (old[0], old[1], old[2] + rng.randint(400, 900))
        return Transaction(">Emp", {"Emp": Delta.modification([(old, new)])})
    if kind == "transfer" and emps:
        # A group-moving modification: exercises aggregate recompute,
        # the fetch path the CommitCache serves.
        old = rng.choice(emps)
        targets = [d for d in DEPTS if d != old[1]]
        new = (old[0], rng.choice(targets), old[2])
        return Transaction("Transfer", {"Emp": Delta.modification([(old, new)])})
    if kind == "hire":
        row = (f"h{rng.randrange(10**9)}", rng.choice(DEPTS), rng.randint(1, 40))
        return Transaction("Hire", {"Emp": Delta.insertion([row])})
    if kind == "fire" and emps:
        return Transaction("Fire", {"Emp": Delta.deletion([rng.choice(emps)])})
    if kind == "budget_cut" and depts:
        old = rng.choice(depts)
        new = (old[0], old[1], max(old[2] - rng.randint(50, 300), 0))
        return Transaction(">Dept", {"Dept": Delta.modification([(old, new)])})
    return None


def _delta_key(deltas: dict[int, Delta]):
    """A comparable, order-insensitive image of returned view deltas."""
    return {
        gid: (
            sorted(d.inserts.items()),
            sorted(d.deletes.items()),
            sorted(d.modifies),
        )
        for gid, d in sorted(deltas.items())
    }


def _run_stream(seed: int, kinds, policy: str, backend: str, cache_on: bool):
    set_default_backend(backend)
    try:
        rng = random.Random(seed)
        db = Database()
        depts = [(name, "m", rng.randint(200, 900)) for name in DEPTS]
        emps = [
            (f"e{i}", rng.choice(DEPTS), rng.randint(5, 30))
            for i in range(rng.randint(2, 7))
        ]
        db.create_relation("Dept", DEPT_SCHEMA, depts, indexes=[["DName"]])
        db.create_relation("Emp", EMP_SCHEMA, emps, indexes=[["DName"]])
        system = AssertionSystem(
            db,
            [DEPT_CONSTRAINT],
            paper_transactions(),
            enforce=(policy == "enforce"),
            commit_cache=cache_on,
        )
        engine = system.engine
        committer = GroupCommitter(engine)
        chunk: list[Transaction] = []

        rng2 = random.Random(seed + 1)
        outcomes = []
        io_before = db.counter.snapshot()
        # A batched rider is applied only when its chunk commits, so the
        # generator works from a mirror updated per generated transaction —
        # otherwise two modifications of the same row compose inconsistently.
        mirror = {
            "Emp": sorted(db.relation("Emp").contents().rows()),
            "Dept": sorted(db.relation("Dept").contents().rows()),
        }

        def current(rel):
            if policy == "batched":
                return mirror[rel]
            return sorted(db.relation(rel).contents().rows())

        def commit_chunk():
            requests = committer.commit_batch(chunk)
            chunk.clear()
            record = committer.batches[-1]
            if record.batch_result is not None:
                outcomes.append(_delta_key(record.batch_result.view_deltas))
            else:
                outcomes.append(tuple(
                    type(r.error).__name__ if r.error else _delta_key(r.result.view_deltas)
                    for r in requests
                ))

        for kind in kinds:
            txn = _make_txn(kind, current("Emp"), current("Dept"), rng2)
            if txn is None:
                outcomes.append("skip")
                continue
            for rel, delta in txn.deltas.items():
                rows = Multiset()
                for row in mirror[rel]:
                    rows.add(row, 1)
                rows.update(delta.net())
                mirror[rel] = sorted(rows.rows())
            if policy == "batched":
                chunk.append(txn)
                if len(chunk) == BATCH:
                    commit_chunk()
                continue
            try:
                result = engine.execute(txn)
            except AssertionViolation:
                outcomes.append("rejected")
                continue
            outcomes.append(_delta_key(result.view_deltas))
        if chunk:
            commit_chunk()
        io = (db.counter.snapshot() - io_before).total

        maintainer = system.maintainer
        maintainer.verify()
        state = {name: db.relation(name).contents() for name in ("Emp", "Dept")}
        for gid in sorted(maintainer.marking):
            if not maintainer.memo.group(gid).is_leaf:
                state[f"view:{gid}"] = maintainer.view_contents(gid)
        return state, outcomes, io
    finally:
        set_default_backend("compiled")


class TestCommitCacheInvisibility:
    @pytest.mark.parametrize("policy", ["immediate", "batched", "enforce"])
    @pytest.mark.parametrize("backend", ["interpreted", "compiled"])
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=10),
    )
    def test_cache_on_equals_cache_off(self, policy, backend, seed, kinds):
        state_on, outcomes_on, io_on = _run_stream(seed, kinds, policy, backend, True)
        state_off, outcomes_off, io_off = _run_stream(seed, kinds, policy, backend, False)
        assert outcomes_on == outcomes_off
        assert state_on == state_off
        # The cache can only remove page I/O, never add it.
        assert io_on <= io_off
