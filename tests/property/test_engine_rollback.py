"""Property-based tests: rollback atomicity of the enforcing engine.

The acceptance property for the engine layer: for random transaction
streams containing violating transactions, running the stream through an
``Engine(enforce=True)`` (violators rejected
and rolled back) must leave the base relations and every materialized
view — as visible through storage, not estimates — bit-identical to a run
that never submitted the violators at all, and the surviving views must
pass from-scratch verification.
"""

import copy
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.assertions import AssertionSystem, AssertionViolation
from repro.ivm.delta import Delta
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

# Benign kinds nudge values; aggressive kinds try hard to violate the
# budget constraint (slash a budget, spike a salary, hire expensively).
KINDS = (
    "small_raise",
    "big_raise",
    "budget_cut",
    "budget_boost",
    "hire_cheap",
    "hire_expensive",
    "fire",
)


def _fresh_system(seed: int):
    rng = random.Random(seed)
    db = Database()
    depts = [(f"dp{i}", "m", rng.randint(400, 900)) for i in range(3)]
    emps = [
        (f"e{i}", f"dp{rng.randrange(3)}", rng.randint(5, 30))
        for i in range(rng.randint(2, 7))
    ]
    db.create_relation("Dept", DEPT_SCHEMA, depts, indexes=[["DName"]])
    db.create_relation("Emp", EMP_SCHEMA, emps, indexes=[["DName"]])
    system = AssertionSystem(
        db, [DEPT_CONSTRAINT], paper_transactions(), enforce=True
    )
    return system, db


def _make_txn(kind: str, db: Database, rng: random.Random) -> Transaction | None:
    emps = sorted(db.relation("Emp").contents().rows())
    depts = sorted(db.relation("Dept").contents().rows())
    if kind == "small_raise" and emps:
        old = rng.choice(emps)
        new = (old[0], old[1], old[2] + rng.randint(1, 5))
        return Transaction(">Emp", {"Emp": Delta.modification([(old, new)])})
    if kind == "big_raise" and emps:
        old = rng.choice(emps)
        new = (old[0], old[1], old[2] + rng.randint(500, 2000))
        return Transaction(">Emp", {"Emp": Delta.modification([(old, new)])})
    if kind == "budget_cut" and depts:
        old = rng.choice(depts)
        new = (old[0], old[1], rng.randint(0, 20))
        return Transaction(">Dept", {"Dept": Delta.modification([(old, new)])})
    if kind == "budget_boost" and depts:
        old = rng.choice(depts)
        new = (old[0], old[1], old[2] + rng.randint(100, 1000))
        return Transaction(">Dept", {"Dept": Delta.modification([(old, new)])})
    if kind == "hire_cheap":
        row = (f"h{rng.randrange(10**9)}", f"dp{rng.randrange(3)}", rng.randint(1, 10))
        return Transaction("Hire", {"Emp": Delta.insertion([row])})
    if kind == "hire_expensive":
        row = (
            f"h{rng.randrange(10**9)}",
            f"dp{rng.randrange(3)}",
            rng.randint(800, 3000),
        )
        return Transaction("Hire", {"Emp": Delta.insertion([row])})
    if kind == "fire" and emps:
        return Transaction("Fire", {"Emp": Delta.deletion([rng.choice(emps)])})
    return None


def _state(system, db):
    """Bit-exact storage-visible state: base relations + every view."""
    state = {name: db.relation(name).contents() for name in ("Emp", "Dept")}
    maintainer = system.maintainer
    for gid in sorted(maintainer.marking):
        if not maintainer.memo.group(gid).is_leaf:
            state[f"view:{gid}"] = maintainer.view_contents(gid)
    return state


class TestRollbackAtomicity:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=12),
    )
    def test_enforced_stream_equals_violator_free_stream(self, seed, kinds):
        # Run A: the full stream through the enforcing engine; violators
        # are rejected with an atomic rollback.
        system_a, db_a = _fresh_system(seed)
        rng = random.Random(seed + 1)
        accepted: list[Transaction] = []
        rejected = 0
        for kind in kinds:
            txn = _make_txn(kind, db_a, rng)
            if txn is None:
                continue
            submitted = copy.deepcopy(txn)
            try:
                system_a.engine.execute(txn)
            except AssertionViolation:
                rejected += 1
                continue
            accepted.append(submitted)
        system_a.maintainer.verify()

        # Run B: an identical fresh system sees only the accepted
        # transactions. Every one must commit (run A's state at each
        # accept equalled initial-state + accepted-prefix).
        system_b, db_b = _fresh_system(seed)
        for txn in accepted:
            result = system_b.engine.execute(txn)
            assert result.committed
        system_b.maintainer.verify()

        assert _state(system_a, db_a) == _state(system_b, db_b)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_rejected_txn_leaves_no_trace(self, seed):
        """A guaranteed violator is a no-op on storage-visible state."""
        system, db = _fresh_system(seed)
        before = _state(system, db)
        emps = sorted(db.relation("Emp").contents().rows())
        if not emps:
            return
        old = emps[0]
        txn = Transaction(
            ">Emp",
            {"Emp": Delta.modification([(old, (old[0], old[1], old[2] + 10**6))])},
        )
        try:
            system.engine.execute(txn)
        except AssertionViolation:
            assert _state(system, db) == before
            system.maintainer.verify()
        else:
            raise AssertionError("a 10^6 raise must violate every budget")
