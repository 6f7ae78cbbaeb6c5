"""Property-based tests: one contract per transaction type.

Storage checks every base delta once, before anything is propagated (row
types, absent tuples, candidate keys, so no repeated old key). A delta whose
shape fits its declared type (declared relations, kinds of change and
modified columns) runs on that type's track; any other, and any transaction
of an undeclared type, is planned from the data. A clean delta (storage
returned its rows as they came, no no-op pair) carries its modified columns
as its contract, on either route. On the compiled backend what the
maintainer derives from it is trusted: a join whose keys the contract
cannot change skips its pair tests, and a view of plain copies skips the
row-type check. The interpreted oracle checks everything. Whatever the
delta — clean, or breaking its type by an undeclared or join column, a
no-op pair, a repeated key, a mistyped or widened row, an undeclared kind,
a key-violating insert or an absent tuple — and whether it is committed
under its declared type or an undeclared one, both backends must agree on
accept/reject, storage, view contents (value by value, with equal types),
returned view deltas and page I/O.
"""

from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.algebra.compile import default_backend, set_default_backend
from repro.algebra.operators import AggSpec, GroupAggregate, Join, Scan
from repro.algebra.scalar import col
from repro.algebra.schema import Schema
from repro.algebra.types import DataType
from repro.core.optimizer import evaluate_view_set
from repro.cost.estimates import DagEstimator
from repro.cost.model import CostConfig
from repro.cost.page_io import PageIOCostModel
from repro.dag.builder import build_multi_dag
from repro.engine import Engine
from repro.ivm.delta import Delta
from repro.ivm.maintainer import ViewMaintainer
from repro.storage.database import Database
from repro.storage.statistics import Catalog
from repro.workload.transactions import Transaction, TransactionType, UpdateSpec

INT, FLOAT = DataType.INT, DataType.FLOAT


def _schemas(keyed: bool) -> dict[str, Schema]:
    """R1(K0, K1, V1, W1) ⋈ R2(K1, K2, V2) ⋈ R3(K2, K3, V3); R_i keyed by
    K{i} when ``keyed``. W1 is FLOAT, so an int there is widened."""
    def of(columns, key):
        return Schema.of(*columns, keys=[[key]] if keyed else [])

    return {
        "R1": of([("K0", INT), ("K1", INT), ("V1", INT), ("W1", FLOAT)], "K1"),
        "R2": of([("K1", INT), ("K2", INT), ("V2", INT)], "K2"),
        "R3": of([("K2", INT), ("K3", INT), ("V3", INT)], "K3"),
    }


def _views(schemas):
    r1, r2, r3 = (Scan(n, schemas[n]) for n in ("R1", "R2", "R3"))
    return {
        "J": Join(Join(r1, r2), r3),  # plain copies: its deltas go unchecked
        "A": GroupAggregate(Join(r1, r2), ("K2",), (AggSpec("sum", col("W1"), "WSum"),)),
    }


def _modify(name, relation, column):
    return TransactionType(
        name, {relation: UpdateSpec(modifies=2, modified_columns=frozenset({column}))}
    )


TXN_TYPES = (
    _modify(">V1", "R1", "V1"),
    _modify(">W1", "R1", "W1"),
    _modify(">V2", "R2", "V2"),
    _modify(">V3", "R3", "V3"),
    TransactionType("+R1", {"R1": UpdateSpec(inserts=1)}),
)
COLUMN = {">V1": 2, ">W1": 3, ">V2": 2, ">V3": 2}
RELATION = {">V1": "R1", ">W1": "R1", ">V2": "R2", ">V3": "R3", "+R1": "R1"}


def _rows(rng_rows):
    """Initial rows: keys 0..n-1, each R_{i+1} row referencing an R_i key."""
    n1, refs2, refs3 = rng_rows
    r1 = [(0, k, k % 3, float(k)) for k in range(n1)]
    r2 = [(ref % n1, k, k) for k, ref in enumerate(refs2)]
    r3 = [(ref % len(refs2), k, k) for k, ref in enumerate(refs3)]
    return {"R1": r1, "R2": r2, "R3": r3}


def _world(keyed: bool, rows, marking_bits: int):
    schemas = _schemas(keyed)
    db = Database()
    for name, schema in schemas.items():
        key = schema.names[1]
        db.create_relation(name, schema, rows[name], indexes=[[schema.names[0]], [key]])
    dag = build_multi_dag(_views(schemas))
    estimator = DagEstimator(dag.memo, Catalog.from_database(db))
    cost_model = PageIOCostModel(dag.memo, estimator, CostConfig())
    roots = {dag.memo.find(r) for r in dag.roots.values()}
    candidates = sorted(g for g in dag.candidate_groups() if dag.memo.find(g) not in roots)
    marking = set(roots)
    for i, gid in enumerate(candidates[:4]):
        if marking_bits & (1 << i):
            marking.add(dag.memo.find(gid))
    evaluation = evaluate_view_set(
        dag.memo, frozenset(marking), TXN_TYPES, cost_model, estimator
    )
    tracks = {name: plan.track for name, plan in evaluation.per_txn.items()}
    maintainer = ViewMaintainer(db, dag, marking, TXN_TYPES, tracks, estimator, cost_model)
    maintainer.materialize()
    return Engine(maintainer)


BREAKS = [
    "clean", "clean", "clean", "undeclared", "join", "noop", "repeat", "chain",
    "mistyped", "widened", "kind", "absent",
]


@st.composite
def transactions(draw, rows):
    """A declared transaction over ``rows`` (the stored state), clean or
    breaking its contract one way."""
    name = draw(st.sampled_from([t.name for t in TXN_TYPES]))
    relation = RELATION[name]
    stored = sorted(rows[relation])
    how = draw(st.sampled_from(BREAKS))
    if name == "+R1" or not stored:
        key = draw(st.integers(0, 8))  # may repeat a stored key
        row = (0, key, 1, 2.0) if how != "mistyped" else (0, key, "x", 2.0)
        return Transaction(name, {"R1": Delta.insertion([row])}), f"{name} insert"
    olds = draw(st.lists(st.sampled_from(stored), min_size=1, max_size=3, unique=True))
    c = COLUMN[name]

    def bump(row, by=1):
        value = row[c] + by
        return row[:c] + (float(value) if name == ">W1" else value,) + row[c + 1:]

    pairs = [(old, bump(old)) for old in olds]
    if how == "undeclared":  # K0 of R1, else the other value-less column
        pairs[0] = (pairs[0][0], (pairs[0][1][0] + 1, *pairs[0][1][1:]))
    elif how == "join":  # the relation's key, also a join column
        pairs[0] = (pairs[0][0], (pairs[0][1][0], pairs[0][1][1] + 50, *pairs[0][1][2:]))
    elif how == "noop":
        pairs[-1] = (pairs[-1][0], pairs[-1][0])
    elif how == "repeat":
        pairs.append(pairs[0])
    elif how == "chain":
        pairs.append((pairs[0][1], bump(pairs[0][1])))
    elif how == "mistyped":
        pairs[0] = (pairs[0][0], pairs[0][1][:c] + ("x",) + pairs[0][1][c + 1:])
    elif how == "widened" and name == ">W1":  # an int in the FLOAT column
        pairs[0] = (pairs[0][0], pairs[0][1][:c] + (int(pairs[0][1][c]) + 7,))
    elif how == "absent":
        old = pairs[0][0]
        ghost = old[:c] + (old[c] + 1000,) + old[c + 1:]
        pairs[0] = (ghost, bump(ghost))
    delta = Delta.modification(pairs)
    if how == "kind":  # a delete the type does not declare
        delta.deletes.add(olds[-1], 1)
    return Transaction(name, {relation: delta}), f"{name} {how}"


@contextmanager
def _backend(name):
    before = default_backend()
    set_default_backend(name)
    try:
        yield
    finally:
        set_default_backend(before)


def _typed(rows):
    return sorted(
        ((row, count, tuple(type(v).__name__ for v in row)) for row, count in rows), key=repr
    )


def _state(engine):
    db, maintainer = engine.db, engine.maintainer
    state = {name: _typed(db.relation(name).items()) for name in ("R1", "R2", "R3")}
    for gid in sorted(maintainer.marking):
        state[f"N{gid}"] = _typed(maintainer.view_contents(gid).items())
    return state


def _canon(view_deltas):
    return {
        gid: (
            _typed(d.inserts.items()),
            _typed(d.deletes.items()),
            sorted(Counter(d.modifies).items(), key=repr),
        )
        for gid, d in view_deltas.items()
    }


def _execute(engine, txn):
    try:
        result = engine.execute(txn)
    except Exception as exc:  # noqa: BLE001 - the outcome is what is compared
        return type(exc).__name__, None
    return "committed", _canon(result.view_deltas)


@settings(max_examples=120, deadline=None)
@given(
    keyed=st.booleans(),
    shape=st.tuples(st.integers(1, 5), st.lists(st.integers(0, 9), min_size=1, max_size=6),
                    st.lists(st.integers(0, 9), min_size=1, max_size=6)),
    marking_bits=st.integers(0, 15),
    data=st.data(),
)
def test_trusted_default_matches_the_checking_oracle(keyed, shape, marking_bits, data):
    """Each drawn delta is committed under its declared type name on one
    pair of worlds and under an undeclared one (planned ad hoc) on another;
    each pair is held to its oracle, and both pairs agree on the outcome:
    storage is the one validator, whatever the route."""
    rows = _rows(shape)
    pairs = []
    for _ in ("declared", "adhoc"):
        with _backend("compiled"):
            fast = _world(keyed, rows, marking_bits)
        with _backend("interpreted"):
            oracle = _world(keyed, rows, marking_bits)
        pairs.append((fast, oracle))
    for _ in range(data.draw(st.integers(1, 4))):
        fast = pairs[0][0]
        current = {n: [r for r, _ in fast.db.relation(n).items()] for n in ("R1", "R2", "R3")}
        txn, label = data.draw(transactions(current))
        outcomes = []
        for route, (fast, oracle) in zip(("declared", "ad hoc"), pairs):
            if route == "ad hoc":
                txn = Transaction(f"~{txn.type_name}", txn.deltas)  # an undeclared name
            with _backend("compiled"):
                got = _execute(fast, txn)
            with _backend("interpreted"):
                expected = _execute(oracle, txn)
            event(f"{'keyed' if keyed else 'keyless'} {route} {label}: {got[0]}")
            assert got == expected, (route, label)
            assert _state(fast) == _state(oracle), (route, label)
            assert fast.db.counter.snapshot() == oracle.db.counter.snapshot(), (route, label)
            outcomes.append(got[0])
        assert outcomes[0] == outcomes[1], label
    with _backend("compiled"):
        for fast, _ in pairs:
            fast.maintainer.verify()


# -- deterministic cases ---------------------------------------------------------------


def _chain_engine():
    return _world(True, _rows((4, [0, 1, 2, 3], [0, 1, 2, 3])), 0b1111)


def _harness_chain(k=5, rows=40):
    """The batch benchmark's chain world, small: R1 ⋈ … ⋈ R5, >R1 and >R3
    modifying V1 / V3, the marking the optimizer picks."""
    from repro.core.optimizer import optimal_view_set
    from repro.dag.builder import build_dag
    from repro.workload.generators import chain_schema, chain_view, generate_chain_data

    data = generate_chain_data(k, rows, seed=1)
    db = Database()
    for i in range(1, k + 1):
        indexes = [[f"K{i-1}"], [f"K{i}"]]
        db.create_relation(f"R{i}", chain_schema(i), data[f"R{i}"], indexes=indexes)
    types = tuple(_modify(f">R{i}", f"R{i}", f"V{i}") for i in (1, 3))
    dag = build_dag(chain_view(k))
    estimator = DagEstimator(dag.memo, Catalog.from_database(db))
    cost_model = PageIOCostModel(dag.memo, estimator, CostConfig(root_group=dag.root))
    plan = optimal_view_set(dag, types, cost_model, estimator, max_candidates=14)
    tracks = {name: p.track for name, p in plan.best.per_txn.items()}
    maintainer = ViewMaintainer(db, dag, plan.best_marking, types, tracks, estimator, cost_model)
    maintainer.materialize()
    return Engine(maintainer)


@pytest.mark.parametrize("backend", ["compiled", "interpreted"])
def test_a_declared_r3_delta_that_also_changes_k3_is_planned_ad_hoc(backend):
    """>R3 declares V3 only. A clean >R3 runs the declared track; one that
    changes K3 as well breaks the contract, so it is planned from the data
    (its spec names K3 and V3) and the views stay right."""
    with _backend(backend):
        engine = _harness_chain()
        maintainer = engine.maintainer
        rows = sorted(r for r, _ in engine.db.relation("R3").items())
        clean = [(old, (old[0], old[1], old[2] + 1)) for old in rows[:3]]
        assert engine.execute(Transaction(">R3", {"R3": Delta.modification(clean)})).committed
        assert maintainer.last_plan[0] is maintainer.txn_types[">R3"]
        rows = sorted(r for r, _ in engine.db.relation("R3").items())
        moved = [(old, (old[0], old[1] + 1000, old[2] + 1)) for old in rows[:3]]
        assert engine.execute(Transaction(">R3", {"R3": Delta.modification(moved)})).committed
        txn_type, _ = maintainer.last_plan
        assert txn_type is not maintainer.txn_types[">R3"]
        assert txn_type.spec("R3").modified_columns == {"K3", "V3"}
        maintainer.verify()


@pytest.mark.parametrize("backend", ["compiled", "interpreted"])
def test_only_the_oracle_checks_derived_deltas(backend, monkeypatch):
    """A clean declared delta: on the compiled backend storage checks the
    row types of nothing the maintainer derived (the join view of plain
    copies included); the oracle checks them all."""
    engine = _chain_engine()
    checked: list[int] = []
    validate = Schema.validate_rows

    def counting(schema, rows):
        checked.append(len(schema.names))
        return validate(schema, rows)

    monkeypatch.setattr(Schema, "validate_rows", counting)
    old = sorted(r for r, _ in engine.db.relation("R1").items())[0]
    txn = Transaction(">V1", {"R1": Delta.modification([(old, old[:2] + (old[2] + 1, old[3]))])})
    with _backend(backend):
        engine.execute(txn)
    wide = [n for n in checked if n > 4]  # rows of a join view, not of R1
    assert (not wide) if backend == "compiled" else wide
    assert txn.deltas["R1"]._contract is None  # the client's delta is left as it was
    engine.maintainer.verify()
