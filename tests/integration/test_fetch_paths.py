"""Integration: the executor's recursive fetch machinery on hard shapes.

Aggregates grouped across join sides with no helpful functional
dependencies force the join-fetch decomposition with *rest* columns, and
renamed projections force column-translation through fetches. Every view
is verified against recomputation after each transaction. A join whose
right input is indexed on the join columns pins the bucketed fetch's
accounting.
"""

import random

import pytest

from repro.algebra.operators import (
    AggSpec,
    GroupAggregate,
    Join,
    Project,
    Scan,
)
from repro.algebra.scalar import Col, col
from repro.algebra.schema import Schema
from repro.algebra.types import DataType
from repro.core.optimizer import evaluate_view_set
from repro.cost.estimates import DagEstimator
from repro.cost.model import CostConfig
from repro.cost.page_io import PageIOCostModel
from repro.dag.builder import build_dag
from repro.ivm.delta import Delta
from repro.ivm.maintainer import ViewMaintainer
from repro.obs.trace import Tracer
from repro.storage.database import Database
from repro.storage.statistics import Catalog
from repro.workload.transactions import Transaction, TransactionType, UpdateSpec

# R(A, G1, V) ⋈_A S(A, G2): no keys anywhere, groups span both sides.
R_SCHEMA = Schema.of(("A", DataType.INT), ("G1", DataType.STRING), ("V", DataType.INT))
S_SCHEMA = Schema.of(("A", DataType.INT), ("G2", DataType.STRING))

TXNS = (
    TransactionType(
        ">RV", {"R": UpdateSpec(modifies=1, modified_columns=frozenset({"V"}))}
    ),
    TransactionType("RIns", {"R": UpdateSpec(inserts=1)}),
    TransactionType("SIns", {"S": UpdateSpec(inserts=1)}),
    TransactionType("SDel", {"S": UpdateSpec(deletes=1)}),
)


def keyless_view():
    join = Join(Scan("R", R_SCHEMA), Scan("S", S_SCHEMA))
    return GroupAggregate(join, ("G1", "G2"), (AggSpec("sum", col("V"), "VS"),))


def build(seed=0, marking_extra=()):
    rng = random.Random(seed)
    db = Database()
    r_rows = [
        (rng.randrange(4), rng.choice(["x", "y"]), rng.randint(1, 9))
        for _ in range(8)
    ]
    s_rows = [(rng.randrange(4), rng.choice(["p", "q"])) for _ in range(5)]
    db.create_relation("R", R_SCHEMA, r_rows, indexes=[["A"]])
    db.create_relation("S", S_SCHEMA, s_rows, indexes=[["A"]])
    dag = build_dag(keyless_view())
    estimator = DagEstimator(dag.memo, Catalog.from_database(db))
    cost_model = PageIOCostModel(
        dag.memo, estimator, CostConfig(root_group=dag.root)
    )
    marking = frozenset(
        {dag.root, *(dag.memo.find(g) for g in marking_extra)}
    )
    ev = evaluate_view_set(dag.memo, marking, TXNS, cost_model, estimator)
    maintainer = ViewMaintainer(
        db,
        dag,
        marking,
        TXNS,
        {name: plan.track for name, plan in ev.per_txn.items()},
        estimator,
        cost_model,
    )
    maintainer.materialize()
    return db, dag, maintainer


def run(db, maintainer, rng, steps=12):
    next_id = 0
    for _ in range(steps):
        kind = rng.choice(TXNS).name
        r_rows = sorted(db.relation("R").contents().rows())
        s_rows = sorted(db.relation("S").contents().rows())
        if kind == ">RV" and r_rows:
            old = rng.choice(r_rows)
            txn = Transaction(
                kind, {"R": Delta.modification([(old, (old[0], old[1], old[2] + 1))])}
            )
        elif kind == "RIns":
            txn = Transaction(
                kind,
                {"R": Delta.insertion([(rng.randrange(4), rng.choice(["x", "y"]), 5)])},
            )
        elif kind == "SIns":
            txn = Transaction(
                kind,
                {"S": Delta.insertion([(rng.randrange(4), rng.choice(["p", "q"]))])},
            )
        elif kind == "SDel" and s_rows:
            txn = Transaction(kind, {"S": Delta.deletion([rng.choice(s_rows)])})
        else:
            continue
        maintainer.apply(txn)
        maintainer.verify()
        next_id += 1


class TestKeylessGroupFetch:
    """Grouping columns span both join sides; nothing reduces; the group
    fetch decomposes through the join with rest-columns filtering."""

    def test_root_only(self):
        db, dag, maintainer = build(seed=1)
        run(db, maintainer, random.Random(2))

    def test_join_also_materialized(self):
        dag_probe = build_dag(keyless_view())
        join_gid = next(
            g.id
            for g in dag_probe.memo.groups()
            if not g.is_leaf and "V" in g.schema and "G2" in g.schema and "A" in g.schema
        )
        db, dag, maintainer = build(seed=3, marking_extra=(join_gid,))
        run(db, maintainer, random.Random(4))


class TestRenamedProjectionFetch:
    def test_renamed_view_maintains(self):
        """Fetches must translate renamed output columns back to inputs."""
        view = Project(
            GroupAggregate(
                Scan("R", R_SCHEMA), ("G1",), (AggSpec("sum", col("V"), "VS"),)
            ),
            (("Label", Col("G1")), ("Total", Col("VS"))),
        )
        rng = random.Random(5)
        db = Database()
        db.create_relation(
            "R",
            R_SCHEMA,
            [(i, rng.choice(["x", "y"]), rng.randint(1, 9)) for i in range(6)],
            indexes=[["G1"]],
        )
        dag = build_dag(view)
        estimator = DagEstimator(dag.memo, Catalog.from_database(db))
        cost_model = PageIOCostModel(
            dag.memo, estimator, CostConfig(root_group=dag.root)
        )
        marking = frozenset({dag.root})
        txns = (TXNS[0], TXNS[1])
        ev = evaluate_view_set(dag.memo, marking, txns, cost_model, estimator)
        maintainer = ViewMaintainer(
            db,
            dag,
            marking,
            txns,
            {name: plan.track for name, plan in ev.per_txn.items()},
            estimator,
            cost_model,
        )
        maintainer.materialize()
        for _ in range(8):
            rows = sorted(db.relation("R").contents().rows())
            old = rng.choice(rows)
            maintainer.apply(
                Transaction(
                    ">RV",
                    {"R": Delta.modification([(old, (old[0], old[1], old[2] + 2))])},
                )
            )
            maintainer.verify()


class TestBucketedJoinFetch:
    """R ⋈ S on A, S indexed on A: an R delta's semijoin query on S is
    answered bucket-grained from S's index. It charges exactly what
    ``probe_many`` charges for the same keys and, answered outside the
    commit cache, leaves the cache's counters alone (docs/cost_model.md)."""

    JOIN_TXNS = (
        TransactionType("RIns", {"R": UpdateSpec(inserts=2)}),
        TransactionType("SIns", {"S": UpdateSpec(inserts=1)}),
    )

    def _maintainer(self, **kwargs):
        rng = random.Random(0)
        db = Database()
        db.create_relation(
            "R", R_SCHEMA, [(rng.randrange(4), "x", v) for v in range(8)], indexes=[["A"]]
        )
        db.create_relation(
            "S", S_SCHEMA, [(rng.randrange(4), "p") for _ in range(6)], indexes=[["A"]]
        )
        dag = build_dag(Join(Scan("R", R_SCHEMA), Scan("S", S_SCHEMA)))
        estimator = DagEstimator(dag.memo, Catalog.from_database(db))
        cost_model = PageIOCostModel(dag.memo, estimator, CostConfig(root_group=dag.root))
        marking = frozenset({dag.root})
        ev = evaluate_view_set(dag.memo, marking, self.JOIN_TXNS, cost_model, estimator)
        maintainer = ViewMaintainer(
            db,
            dag,
            marking,
            self.JOIN_TXNS,
            {name: plan.track for name, plan in ev.per_txn.items()},
            estimator,
            cost_model,
            **kwargs,
        )
        maintainer.materialize()
        return db, maintainer

    def _insert_into_r(self, db, maintainer):
        tracer = Tracer(db.counter)
        rows = [(1, "y", 3), (2, "y", 4), (2, "z", 5)]
        maintainer.apply(Transaction("RIns", {"R": Delta.insertion(rows)}), tracer=tracer)
        (span,) = tracer.find("fetch")
        assert span.attrs["side"] == "R" and span.attrs["bucketed"]
        assert span.attrs["keys"] == 2
        # S is unchanged by the commit: replay the same probe on its index.
        before = db.counter.snapshot()
        db.relation("S").index_on(["A"]).probe_many({(1,), (2,)})
        assert span.io == db.counter.snapshot() - before
        maintainer.verify()
        return span

    def test_charges_probe_many_and_bypasses_commit_cache(self):
        db, maintainer = self._maintainer()
        span = self._insert_into_r(db, maintainer)
        assert span.attrs["cache_hits"] == span.attrs["cache_misses"] == 0
        stats = maintainer.last_cache_stats
        assert stats is not None and stats.hits == stats.misses == 0

    def test_same_io_with_commit_cache_off(self):
        on = self._insert_into_r(*self._maintainer())
        off = self._insert_into_r(*self._maintainer(commit_cache=False))
        assert on.io == off.io
        assert "cache_hits" not in off.attrs

    def test_flat_left_fetch_goes_through_commit_cache(self):
        db, maintainer = self._maintainer()
        tracer = Tracer(db.counter)
        maintainer.apply(
            Transaction("SIns", {"S": Delta.insertion([(1, "q")])}), tracer=tracer
        )
        (span,) = tracer.find("fetch")
        assert span.attrs["side"] == "L" and not span.attrs["bucketed"]
        assert span.attrs["cache_misses"] == 1
        maintainer.verify()
