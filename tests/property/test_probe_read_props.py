"""Property-based tests: snapshot SELECT by probe.

``Engine.select`` reads a scan leaf whose parent selection pins a declared
key or an indexed column set through the key map or the index bucket,
patches the probed rows with the epoch's inverses filtered to the probe
key, and evaluates without the conjuncts the probe answered. Whatever it
probes, the result must equal the oracle: a full copy of every relation
taken at the pinned epoch, evaluated with the interpreted backend. Random
commits (inserts, deletes, key-changing and bucket-changing modifies) land
between the pin and the read.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.evaluate import evaluate
from repro.algebra.operators import AggSpec, GroupAggregate, Join, Project, Scan, Select
from repro.algebra.predicates import Compare, conjunction
from repro.algebra.scalar import col, lit
from repro.ivm.delta import Delta
from repro.shell import corporate_world
from repro.sql.dml import translate_query
from repro.sql.parser import parse
from repro.workload.paperdb import DEPT_SCHEMA, EMP_SCHEMA
from repro.workload.transactions import Transaction

N_DEPTS, PER_DEPT = 4, 3
DEPTS = [f"dept{d:05d}" for d in range(N_DEPTS)] + ["nodept"]
NAMES = [f"emp{d:05d}_{e:03d}" for d in range(N_DEPTS) for e in range(PER_DEPT)]
NAMES += [f"new{i}" for i in range(4)] + ["nobody"]

EMP, DEPT = Scan("Emp", EMP_SCHEMA), Scan("Dept", DEPT_SCHEMA)


def _eq(column, value):
    return Compare("=", col(column), lit(value))


def _where(*parts):
    return conjunction(parts)


@st.composite
def commits(draw):
    """A few single-relation commits on Emp, drawn as (kind, pick, value)."""
    kinds = ["insert", "delete", "rename", "move", "raise"]
    return draw(
        st.lists(
            st.tuples(st.sampled_from(kinds), st.integers(0, 99), st.integers(0, 99)),
            max_size=5,
        )
    )


def _commit(engine, step, seq):
    """Apply one drawn commit against the live Emp rows."""
    kind, pick, value = step
    live = sorted(engine.db.relation("Emp").contents().expand())
    taken = {row[0] for row in live}
    if kind == "insert" or not live:
        free = [n for n in NAMES if n not in taken]
        if not free:
            return
        delta = Delta.insertion([(free[pick % len(free)], DEPTS[value % N_DEPTS], value % 9)])
    else:
        old = live[pick % len(live)]
        if kind == "delete":
            delta = Delta.deletion([old])
        elif kind == "rename":
            free = [n for n in NAMES if n not in taken]
            if not free:
                return
            delta = Delta.modification([(old, (free[value % len(free)], old[1], old[2]))])
        elif kind == "move":
            new = (old[0], DEPTS[value % N_DEPTS], old[2])
            if new == old:
                return
            delta = Delta.modification([(old, new)])
        else:
            delta = Delta.modification([(old, (old[0], old[1], old[2] + 1 + value % 5))])
    engine.execute(Transaction(f"step{seq}", {"Emp": delta}))


def _queries(db, name, other, dept, salary):
    """The read shapes the planner must get right, each as an expression."""
    sql = [
        f"SELECT EName, DName, Salary FROM Emp WHERE EName = '{name}'",
        f"SELECT EName, Salary FROM Emp WHERE EName = '{name}' AND Salary > 3",
        f"SELECT DName, SUM(Salary) FROM Emp WHERE DName = '{dept}' GROUPBY DName",
        f"SELECT EName FROM Emp WHERE DName = '{dept}' AND Salary > 3",
        f"SELECT EName FROM Emp WHERE Salary = {salary}",  # unindexed: scans
        f"SELECT EName FROM Emp WHERE EName = '{name}' AND EName = '{other}'",
        f"SELECT EName FROM Emp WHERE '{dept}' = DName AND EName = '{name}'",
        f"SELECT DName, Budget FROM Dept WHERE DName = '{dept}'",
        f"SELECT EName, Budget FROM Emp, Dept WHERE Emp.DName = Dept.DName "
        f"AND Emp.DName = '{dept}'",
    ]
    exprs = [translate_query(parse(text), db) for text in sql]
    total = GroupAggregate(
        Select(EMP, _eq("DName", dept)), (), (AggSpec("sum", col("Salary"), "Total"),)
    )
    exprs += [
        total,
        Join(Select(EMP, _eq("EName", name)), DEPT),
        Project(
            Join(
                Select(EMP, _where(_eq("DName", dept), Compare(">", col("Salary"), lit(3)))),
                Select(DEPT, _eq("DName", dept)),
            ),
            (("EName", col("EName")), ("Budget", col("Budget"))),
        ),
        Join(Select(EMP, _eq("EName", name)), Select(EMP, _eq("EName", other))),
    ]
    return exprs


def _world():
    _, _, engine = corporate_world(n_depts=N_DEPTS, emps_per_dept=PER_DEPT, seed=3)
    return engine


def _snapshot(engine):
    return {rel.name: rel.contents() for rel in engine.db}


class TestProbeReadMatchesScanOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        before=commits(),
        between=commits(),
        name=st.sampled_from(NAMES),
        other=st.sampled_from(NAMES),
        dept=st.sampled_from(DEPTS),
        salary=st.integers(0, 9),
    )
    def test_snapshot_read_equals_full_copy_oracle(
        self, before, between, name, other, dept, salary
    ):
        engine = _world()
        for seq, step in enumerate(before):
            _commit(engine, step, seq)
        epoch = engine.pin_epoch()
        try:
            oracle_rows = _snapshot(engine)
            for seq, step in enumerate(between):
                _commit(engine, step, 100 + seq)
            for expr in _queries(engine.db, name, other, dept, salary):
                got, _ = engine.select(expr, epoch=epoch)
                assert got == evaluate(expr, oracle_rows, backend="interpreted"), expr
        finally:
            engine.unpin_epoch(epoch)
        live_rows = _snapshot(engine)
        for expr in _queries(engine.db, name, other, dept, salary):
            got, _ = engine.select(expr)
            assert got == evaluate(expr, live_rows, backend="interpreted"), expr

    @settings(max_examples=60, deadline=None)
    @given(between=commits(), name=st.sampled_from(NAMES), dept=st.sampled_from(DEPTS))
    def test_probe_is_charged_as_a_lookup_at_the_snapshot(self, between, name, dept):
        engine = _world()
        epoch = engine.pin_epoch()
        try:
            emp = engine.db.relation("Emp").contents()
            for seq, step in enumerate(between):
                _commit(engine, step, seq)
            _, io = engine.select(Select(EMP, _eq("EName", name)), epoch=epoch)
            assert (io.index_reads, io.tuple_reads) == (
                1, sum(n for row, n in emp.items() if row[0] == name)
            )
            _, io = engine.select(Select(EMP, _eq("DName", dept)), epoch=epoch)
            assert (io.index_reads, io.tuple_reads) == (
                1, sum(n for row, n in emp.items() if row[1] == dept)
            )
            # Nothing a probe answers: the scan of the snapshot's rows.
            _, io = engine.select(Select(EMP, _eq("Salary", 5)), epoch=epoch)
            assert (io.index_reads, io.tuple_reads) == (0, emp.total())
        finally:
            engine.unpin_epoch(epoch)
