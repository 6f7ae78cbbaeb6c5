"""Property tests: every execution backend is observationally identical to the
interpreted reference backend.

Two halves, matching the cost-transparency contract of
:mod:`repro.algebra.compile`:

* for random well-typed expressions over random databases, ``evaluate``
  returns bit-identical multisets under every backend (interpreted ×
  compiled);
* for random maintenance streams on the paper's corporate database, the
  maintainer produces identical view contents *and* identical ``IOCounter``
  totals under every backend — a backend may only move wall clock, never
  charged page I/Os.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.compile import plan_cache, set_default_backend
from repro.algebra.evaluate import evaluate
from repro.algebra.multiset import Multiset
from repro.algebra.operators import (
    AggSpec,
    Difference,
    GroupAggregate,
    Join,
    Project,
    Scan,
    Select,
    Union,
)
from repro.algebra.predicates import And, Compare, Not, Or, TruePred
from repro.algebra.scalar import Arith, Col, Const
from repro.algebra.schema import Schema
from repro.algebra.types import DataType

R_SCAN = Scan(
    "R",
    Schema.of(("a", DataType.INT), ("b", DataType.INT), ("c", DataType.INT)),
)
S_SCAN = Scan("S", Schema.of(("c", DataType.INT), ("d", DataType.INT)))

_CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")

CHECKED_BACKENDS = ("interpreted", "compiled")


@st.composite
def scalars(draw, names, depth=2):
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return Col(draw(st.sampled_from(list(names))))
        return Const(draw(st.integers(-5, 5)))
    op = draw(st.sampled_from(["+", "-", "*"]))
    return Arith(op, draw(scalars(names, depth - 1)), draw(scalars(names, depth - 1)))


@st.composite
def predicates(draw, names, depth=2):
    kind = draw(
        st.sampled_from(
            ["cmp", "true"] if depth == 0 else ["cmp", "cmp", "true", "and", "or", "not"]
        )
    )
    if kind == "true":
        return TruePred()
    if kind == "cmp":
        return Compare(
            draw(st.sampled_from(_CMP_OPS)),
            draw(scalars(names, 1)),
            draw(scalars(names, 1)),
        )
    if kind == "not":
        return Not(draw(predicates(names, depth - 1)))
    left = draw(predicates(names, depth - 1))
    right = draw(predicates(names, depth - 1))
    if kind == "and":
        return And((left, right))
    return Or(left, right)


@st.composite
def rel_exprs(draw, depth=3):
    if depth == 0:
        return draw(st.sampled_from([R_SCAN, S_SCAN]))
    kind = draw(
        st.sampled_from(
            ["scan", "select", "project", "join", "agg", "dedup", "union", "diff"]
        )
    )
    if kind == "scan":
        return draw(st.sampled_from([R_SCAN, S_SCAN]))
    if kind in ("union", "diff"):
        # Same-schema operands: a subexpression vs. a selection of itself.
        inner = draw(rel_exprs(depth - 1))
        other = Select(inner, draw(predicates(inner.schema.names, 1)))
        cls = Union if kind == "union" else Difference
        return cls(inner, other) if draw(st.booleans()) else cls(other, inner)
    if kind == "join":
        left = draw(rel_exprs(depth - 1))
        right = draw(st.sampled_from([R_SCAN, S_SCAN]))
        if not set(left.schema.names) & set(right.schema.names):
            return Select(left, draw(predicates(left.schema.names)))
        residual = draw(
            st.one_of(st.just(TruePred()), predicates(Join(left, right).schema.names, 1))
        )
        return Join(left, right, residual)
    inner = draw(rel_exprs(depth - 1))
    names = inner.schema.names
    if kind == "select":
        return Select(inner, draw(predicates(names)))
    if kind == "dedup":
        return Project(inner, tuple((n, Col(n)) for n in names), dedup=True)
    if kind == "project":
        kept = draw(
            st.lists(st.sampled_from(list(names)), min_size=1, unique=True)
        )
        outputs = [(n, Col(n)) for n in kept]
        if draw(st.booleans()):
            fresh = next(f"x{i}" for i in range(10) if f"x{i}" not in names)
            outputs.append((fresh, draw(scalars(names, 1))))
        return Project(inner, tuple(outputs), dedup=draw(st.booleans()))
    # Aggregation: group by a (possibly empty) subset, at least one aggregate.
    group = draw(st.lists(st.sampled_from(list(names)), max_size=2, unique=True))
    funcs = draw(
        st.lists(st.sampled_from(["count", "sum", "min", "max", "avg"]), min_size=1, max_size=2)
    )
    taken = set(group)
    aggs = []
    for func in funcs:
        arg = None if func == "count" and draw(st.booleans()) else draw(scalars(names, 1))
        out = next(f"agg{i}" for i in range(10) if f"agg{i}" not in taken)
        taken.add(out)
        aggs.append(AggSpec(func, arg, out))
    return GroupAggregate(inner, tuple(group), tuple(aggs))


@st.composite
def databases(draw):
    r_rows = draw(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)), max_size=8)
    )
    s_rows = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=8))
    return {"R": Multiset(r_rows), "S": Multiset(s_rows)}


class TestEvaluateEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(expr=rel_exprs(), source=databases())
    def test_backends_agree(self, expr, source):
        reference = evaluate(expr, source, backend="interpreted")
        for backend in CHECKED_BACKENDS[1:]:
            assert evaluate(expr, source, backend=backend) == reference, backend
            # Second run hits the plan cache; results must not change.
            assert evaluate(expr, source, backend=backend) == reference, backend

    @settings(max_examples=60, deadline=None)
    @given(expr=rel_exprs(), source=databases())
    def test_backends_raise_identically(self, expr, source):
        """When one backend raises (e.g. AVG over an empty-group division),
        every other backend raises the same exception type."""
        try:
            reference = evaluate(expr, source, backend="interpreted")
            failure = None
        except Exception as exc:  # noqa: BLE001 - comparing failure modes
            reference, failure = None, type(exc)
        for backend in CHECKED_BACKENDS[1:]:
            if failure is None:
                assert evaluate(expr, source, backend=backend) == reference, backend
            else:
                with pytest.raises(failure):
                    evaluate(expr, source, backend=backend)


# -- maintainer I/O equality -----------------------------------------------------------

from repro.core.optimizer import evaluate_view_set  # noqa: E402
from repro.cost.estimates import DagEstimator  # noqa: E402
from repro.cost.model import CostConfig  # noqa: E402
from repro.cost.page_io import PageIOCostModel  # noqa: E402
from repro.dag.builder import build_dag  # noqa: E402
from repro.ivm.maintainer import ViewMaintainer  # noqa: E402
from repro.storage.database import Database  # noqa: E402
from repro.storage.statistics import Catalog  # noqa: E402
from repro.workload.paperdb import DEPT_SCHEMA, EMP_SCHEMA, problem_dept_tree  # noqa: E402
from tests.property.test_ivm_random_streams import TXN_TYPES, _make_txn  # noqa: E402

DEPT_POOL = [f"dp{i}" for i in range(5)]


def _run_stream(backend: str, seed: int, marking_bits: int, kinds: list[str]):
    """One maintenance stream under ``backend``; returns (views, IOStats)."""
    set_default_backend(backend)
    try:
        rng = random.Random(seed)
        db = Database()
        depts = [
            (name, "m", rng.randint(0, 150)) for name in DEPT_POOL[: rng.randint(1, 4)]
        ]
        emps = [
            (f"e{i}", rng.choice(DEPT_POOL), rng.randint(0, 99))
            for i in range(rng.randint(0, 8))
        ]
        db.create_relation("Dept", DEPT_SCHEMA, depts, indexes=[["DName"]])
        db.create_relation("Emp", EMP_SCHEMA, emps, indexes=[["DName"]])
        dag = build_dag(problem_dept_tree())
        estimator = DagEstimator(dag.memo, Catalog.from_database(db))
        cost_model = PageIOCostModel(dag.memo, estimator, CostConfig(root_group=dag.root))
        candidates = sorted(
            g for g in dag.candidate_groups() if dag.memo.find(g) != dag.root
        )
        marking = {dag.root}
        for i, gid in enumerate(candidates):
            if marking_bits & (1 << i):
                marking.add(dag.memo.find(gid))
        ev = evaluate_view_set(
            dag.memo, frozenset(marking), TXN_TYPES, cost_model, estimator
        )
        tracks = {name: plan.track for name, plan in ev.per_txn.items()}
        maintainer = ViewMaintainer(
            db, dag, marking, TXN_TYPES, tracks, estimator, cost_model
        )
        maintainer.materialize()
        db.counter.reset()
        for kind in kinds:
            txn = _make_txn(kind, db, rng)
            if txn is None:
                continue
            maintainer.apply(txn)
        views = {gid: maintainer.view_contents(gid) for gid in sorted(maintainer._views)}
        return views, db.counter.snapshot()
    finally:
        set_default_backend("compiled")


class TestMaintainerIOEquality:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        marking_bits=st.integers(0, 15),
        kinds=st.lists(
            st.sampled_from([t.name for t in TXN_TYPES]), min_size=1, max_size=6
        ),
    )
    def test_views_and_io_charges_identical(self, seed, marking_bits, kinds):
        interp_views, interp_io = _run_stream("interpreted", seed, marking_bits, kinds)
        for backend in CHECKED_BACKENDS[1:]:
            views, io = _run_stream(backend, seed, marking_bits, kinds)
            assert views == interp_views, backend
            assert io == interp_io, backend

    def test_plan_cache_accumulates(self):
        cache = plan_cache()
        cache.reset_stats()
        _run_stream("compiled", 7, 0b1111, ["EmpIns", ">DeptBud", "EmpDel"])
        assert cache.stats.misses >= 0  # stats stay consistent
        assert cache.stats.entries == len(cache)


# -- engine policies × backends --------------------------------------------------------

from tests.property.test_commit_cache_props import (  # noqa: E402
    KINDS as ENGINE_KINDS,
    _run_stream as _engine_stream,
)


class TestPolicyBackendEquality:
    """Full engine streams (commit/rollback/composed batches) under the
    immediate and enforcing engines and the ``batched`` cell: state, per-transaction outcomes, and total charged I/O must be
    indistinguishable across all backends."""

    @pytest.mark.parametrize("policy", ["immediate", "batched", "enforce"])
    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        kinds=st.lists(st.sampled_from(ENGINE_KINDS), min_size=1, max_size=8),
    )
    def test_engine_streams_identical_across_backends(self, policy, seed, kinds):
        reference = _engine_stream(seed, kinds, policy, "interpreted", True)
        for backend in CHECKED_BACKENDS[1:]:
            assert _engine_stream(seed, kinds, policy, backend, True) == reference, backend
