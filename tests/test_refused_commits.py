"""A base delta storage refuses stops the commit before any maintenance.

Storage is the one validator of client input: each base delta is checked
against the pre-update state (row types, absent tuples, candidate keys)
before anything is propagated, for declared and ad-hoc transactions alike.
A refused delta therefore raises from ``Engine.execute`` with nothing
changed, nothing charged and no ``track_op`` span opened. An assertion
rejection is different: the maintenance ran, so it stays charged.
"""

from collections import Counter
from contextlib import contextmanager

import pytest

from repro.algebra.compile import default_backend, set_default_backend
from repro.algebra.operators import AggSpec, GroupAggregate, Join, Scan
from repro.algebra.scalar import col
from repro.algebra.schema import Schema
from repro.algebra.types import DataType, TypeError_
from repro.constraints.assertions import AssertionSystem, AssertionViolation
from repro.core.optimizer import evaluate_view_set
from repro.cost.estimates import DagEstimator
from repro.cost.model import CostConfig
from repro.cost.page_io import PageIOCostModel
from repro.dag.builder import build_multi_dag
from repro.engine import Engine
from repro.ivm.delta import Delta
from repro.ivm.maintainer import ViewMaintainer
from repro.obs.trace import Tracer
from repro.sql.dml import error_tier
from repro.storage.database import Database
from repro.storage.relation import StorageError
from repro.storage.statistics import Catalog
from repro.workload.transactions import Transaction, TransactionType, UpdateSpec, paper_transactions

INT = DataType.INT

# R(K, G, V) keyed by K, S(G, W) keyed by G; views: R ⋈ S and SUM(V) by G.
R = Schema.of(("K", INT), ("G", INT), ("V", INT), keys=[["K"]])
S = Schema.of(("G", INT), ("W", INT), keys=[["G"]])
KEYED_TYPES = (
    TransactionType(">V", {"R": UpdateSpec(modifies=1, modified_columns=frozenset({"V"}))}),
    TransactionType("+R", {"R": UpdateSpec(inserts=1)}),
)

# T(A, B) with no key; view: MAX(B) by A.
T = Schema.of(("A", INT), ("B", INT))
KEYLESS_TYPES = (
    TransactionType(
        ">B", {"T": UpdateSpec(modifies=1, deletes=1, modified_columns=frozenset({"B"}))}
    ),
)


@contextmanager
def _backend(name):
    before = default_backend()
    set_default_backend(name)
    try:
        yield
    finally:
        set_default_backend(before)


@pytest.fixture(params=["compiled", "interpreted"])
def backend(request):
    with _backend(request.param):
        yield request.param


def _engine(relations, views, types):
    db = Database()
    for name, (schema, rows) in relations.items():
        db.create_relation(name, schema, rows, indexes=[[schema.names[0]]])
    dag = build_multi_dag(views)
    estimator = DagEstimator(dag.memo, Catalog.from_database(db))
    cost_model = PageIOCostModel(dag.memo, estimator, CostConfig())
    marking = frozenset(dag.memo.find(r) for r in dag.roots.values())
    evaluation = evaluate_view_set(dag.memo, marking, types, cost_model, estimator)
    tracks = {name: plan.track for name, plan in evaluation.per_txn.items()}
    maintainer = ViewMaintainer(db, dag, marking, types, tracks, estimator, cost_model)
    maintainer.materialize()
    return Engine(maintainer, tracer=Tracer())


def keyed_engine():
    r, s = Scan("R", R), Scan("S", S)
    views = {
        "J": Join(r, s),
        "Sum": GroupAggregate(r, ("G",), (AggSpec("sum", col("V"), "VSum"),)),
    }
    rows = {"R": (R, [(k, k % 3, 10 * k) for k in range(6)]), "S": (S, [(g, g) for g in range(3)])}
    return _engine(rows, views, KEYED_TYPES)


def keyless_engine():
    views = {"Max": GroupAggregate(Scan("T", T), ("A",), (AggSpec("max", col("B"), "BMax"),))}
    return _engine({"T": (T, [(0, 1), (0, 5), (1, 2)])}, views, KEYLESS_TYPES)


def _state(engine):
    """Every relation and view, value by value with its types, and the
    I/O counter."""
    db, maintainer = engine.db, engine.maintainer
    state = {
        name: sorted((row, n, tuple(map(type, row))) for row, n in db.relation(name).items())
        for name in db.names
        if not name.startswith("_view_")
    }
    for gid in sorted(maintainer.marking):
        state[f"N{gid}"] = sorted(Counter(maintainer.view_contents(gid).items()).items())
    state["io"] = db.counter.snapshot()
    return state


def _refused(engine, txn, error):
    """``txn`` raises ``error`` and leaves no trace: same state, same
    counter, no span but the commit's own and its rollback."""
    before = _state(engine)
    engine.tracer.reset()
    with pytest.raises(error) as info:
        engine.execute(txn)
    assert _state(engine) == before
    assert engine.tracer.find("track_op") == []
    assert engine.tracer.find("base_apply") == [] and engine.tracer.find("view_apply") == []
    assert engine.tracer.total_io().total == 0
    engine.maintainer.verify()
    return info.value


def _named(deltas, declared, name):
    return Transaction(name if declared else "adhoc", deltas)


KEYED_REFUSALS = {
    # case: (type name, deltas, error)
    "absent tuple": (">V", {"R": Delta.modification([((99, 0, 0), (99, 0, 1))])}, StorageError),
    "key violation": ("+R", {"R": Delta.insertion([(1, 0, 0)])}, StorageError),
    "mistyped row": (">V", {"R": Delta.modification([((1, 1, 10), (1, 1, "x"))])}, TypeError_),
    "unknown relation": (
        ">V",
        {
            "R": Delta.modification([((1, 1, 10), (1, 1, 11))]),
            "Nope": Delta.insertion([(1,)]),
        },
        StorageError,
    ),
    "repeated old key": (
        ">V",
        {"R": Delta.modification([((1, 1, 10), (1, 1, 11)), ((1, 1, 10), (1, 1, 12))])},
        StorageError,
    ),
}


@pytest.mark.parametrize("declared", [True, False], ids=["declared", "adhoc"])
@pytest.mark.parametrize("case", sorted(KEYED_REFUSALS))
def test_a_refused_base_delta_does_no_maintenance(backend, case, declared):
    engine = keyed_engine()
    name, deltas, error = KEYED_REFUSALS[case]
    exc = _refused(engine, _named(deltas, declared, name), error)
    assert error_tier(exc) == "invalid"
    # The world still commits: nothing of the refused delta was left behind.
    good = Transaction(name, {"R": Delta.modification([((2, 2, 20), (2, 2, 21))])})
    assert engine.execute(good).committed
    engine.maintainer.verify()


KEYLESS_REFUSALS = {
    "modified twice": Delta.modification([((0, 1), (0, 2)), ((0, 1), (0, 3))]),
    "modified and deleted": Delta(modifies=[((0, 1), (0, 2))], deletes=Delta.deletion([(0, 1)]).deletes),
}


@pytest.mark.parametrize("declared", [True, False], ids=["declared", "adhoc"])
@pytest.mark.parametrize("case", sorted(KEYLESS_REFUSALS))
def test_a_keyless_row_changed_twice_is_refused_by_storage(backend, case, declared):
    """Modifying one stored row of a keyless relation twice, or modifying
    and deleting it, is the client's fault: storage refuses it (tier
    ``invalid``) before the MAX view's rule sees it, and nothing is
    charged."""
    engine = keyless_engine()
    txn = _named({"T": KEYLESS_REFUSALS[case]}, declared, ">B")
    exc = _refused(engine, txn, StorageError)
    assert error_tier(exc) == "invalid"


def test_an_assertion_rejection_keeps_its_maintenance_charged(small_paper_db):
    """An enforcing engine rejects a commit only after maintaining the
    views that show the violation: that work stays charged, while the
    state is rolled back."""
    constraint = """
    CREATE ASSERTION DeptConstraint CHECK (NOT EXISTS (
        SELECT Dept.DName FROM Emp, Dept
        WHERE Dept.DName = Emp.DName
        GROUPBY Dept.DName, Budget
        HAVING SUM(Salary) > Budget))
    """
    system = AssertionSystem(small_paper_db, [constraint], paper_transactions(), enforce=True)
    engine = system.engine
    engine.set_tracer(Tracer())
    dept = sorted(small_paper_db.relation("Dept").contents().rows())[0]
    txn = Transaction(">Dept", {"Dept": Delta.modification([(dept, (dept[0], dept[1], 1))])})
    before = small_paper_db.counter.snapshot()
    contents = {n: small_paper_db.relation(n).contents() for n in ("Emp", "Dept")}
    with pytest.raises(AssertionViolation):
        engine.execute(txn)
    assert small_paper_db.counter.snapshot().total > before.total
    assert engine.tracer.find("track_op")
    assert {n: small_paper_db.relation(n).contents() for n in ("Emp", "Dept")} == contents
    system.maintainer.verify()
