"""Tests for the maintenance executor against real stored data."""

import random

import pytest

from repro.algebra.evaluate import evaluate
from repro.core.optimizer import evaluate_view_set
from repro.cost.estimates import DagEstimator
from repro.cost.model import CostConfig
from repro.cost.page_io import PageIOCostModel
from repro.dag.builder import build_dag
from repro.ivm.delta import Delta
from repro.ivm.maintainer import ViewMaintainer, group_expression
from repro.storage.database import Database
from repro.storage.statistics import Catalog
from repro.workload.paperdb import (
    DEPT_SCHEMA,
    EMP_SCHEMA,
    generate_corporate_db,
    problem_dept_tree,
    sum_of_sals_tree,
)
from repro.workload.transactions import Transaction, paper_transactions


def build_maintainer(db, extra_names=("SumOfSals",)):
    dag = build_dag(problem_dept_tree())
    estimator = DagEstimator(dag.memo, Catalog.from_database(db))
    cost_model = PageIOCostModel(
        dag.memo, estimator, CostConfig(root_group=dag.root)
    )
    txns = paper_transactions()
    name_to_gid = {}
    for group in dag.memo.groups():
        names = set(group.schema.names)
        if names == {"DName", "SalSum"}:
            name_to_gid["SumOfSals"] = group.id
        if names == {"Budget", "DName", "EName", "MName", "Salary"}:
            name_to_gid["join"] = group.id
    marking = frozenset({dag.root} | {name_to_gid[n] for n in extra_names})
    ev = evaluate_view_set(dag.memo, marking, txns, cost_model, estimator)
    tracks = {name: plan.track for name, plan in ev.per_txn.items()}
    maintainer = ViewMaintainer(
        db, dag, marking, txns, tracks, estimator, cost_model
    )
    maintainer.materialize()
    return maintainer, dag, name_to_gid


def emp_modify(db, rng, delta=7):
    old = rng.choice(sorted(db.relation("Emp").contents().rows()))
    new = (old[0], old[1], old[2] + delta)
    return Transaction(">Emp", {"Emp": Delta.modification([(old, new)])})


def dept_modify(db, rng, delta=25):
    old = rng.choice(sorted(db.relation("Dept").contents().rows()))
    new = (old[0], old[1], old[2] + delta)
    return Transaction(">Dept", {"Dept": Delta.modification([(old, new)])})


class TestMaterialization:
    def test_views_created_and_correct(self, small_paper_db):
        maintainer, dag, gids = build_maintainer(small_paper_db)
        maintainer.verify()
        contents = maintainer.view_contents(gids["SumOfSals"])
        expected = evaluate(sum_of_sals_tree(), small_paper_db)
        assert contents == expected

    def test_view_has_index(self, small_paper_db):
        maintainer, dag, gids = build_maintainer(small_paper_db)
        relation = small_paper_db.relation(maintainer.view_name(gids["SumOfSals"]))
        assert ("DName",) in relation.indexes

    def test_root_materialized(self, small_paper_db):
        maintainer, dag, _ = build_maintainer(small_paper_db)
        root_view = maintainer.view_contents(dag.root)
        assert root_view == evaluate(problem_dept_tree(), small_paper_db)


class TestTransactionProcessing:
    def test_emp_modify_maintains_all_views(self, small_paper_db):
        maintainer, dag, gids = build_maintainer(small_paper_db)
        rng = random.Random(1)
        for _ in range(10):
            maintainer.apply(emp_modify(small_paper_db, rng, delta=50))
            maintainer.verify()

    def test_dept_modify_maintains_all_views(self, small_paper_db):
        maintainer, dag, gids = build_maintainer(small_paper_db)
        rng = random.Random(2)
        for _ in range(10):
            maintainer.apply(dept_modify(small_paper_db, rng, delta=-40))
            maintainer.verify()

    def test_inserts_and_deletes(self, small_paper_db):
        maintainer, dag, gids = build_maintainer(small_paper_db)
        emp = sorted(small_paper_db.relation("Emp").contents().rows())[0]
        maintainer.apply(Transaction(">Emp", {"Emp": Delta.deletion([emp])}))
        maintainer.verify()
        maintainer.apply(
            Transaction(">Emp", {"Emp": Delta.insertion([("zz_new", emp[1], 33)])})
        )
        maintainer.verify()

    def test_new_department_with_employees(self, small_paper_db):
        maintainer, dag, gids = build_maintainer(small_paper_db)
        maintainer.apply(
            Transaction(
                ">Dept",
                {"Dept": Delta.insertion([("zzdept", "zmgr", 10)])},
            )
        )
        maintainer.verify()
        maintainer.apply(
            Transaction(">Emp", {"Emp": Delta.insertion([("zzemp", "zzdept", 99)])})
        )
        maintainer.verify()
        # The new department must now violate its budget (99 > 10).
        root = maintainer.view_contents(dag.root)
        assert ("zzdept",) in root

    def test_constraint_flip_updates_root(self, small_paper_db):
        """Push one department over budget and back."""
        maintainer, dag, gids = build_maintainer(small_paper_db)
        dept = sorted(small_paper_db.relation("Dept").contents().rows())[0]
        over = (dept[0], dept[1], -10_000)
        maintainer.apply(
            Transaction(">Dept", {"Dept": Delta.modification([(dept, over)])})
        )
        maintainer.verify()
        assert (dept[0],) in maintainer.view_contents(dag.root)
        maintainer.apply(
            Transaction(">Dept", {"Dept": Delta.modification([(over, dept)])})
        )
        maintainer.verify()
        assert (dept[0],) not in maintainer.view_contents(dag.root)

    def test_undeclared_name_is_planned_from_the_data(self):
        """``apply`` of a name no type declares plans the transaction from
        its data, exactly as ``apply_adhoc`` does: the same view deltas,
        stored state, page I/O and plan-cache traffic."""

        def world():
            db = Database()
            data = generate_corporate_db(20, 5, seed=7)
            db.create_relation("Dept", DEPT_SCHEMA, data["Dept"], indexes=[["DName"]])
            db.create_relation("Emp", EMP_SCHEMA, data["Emp"], indexes=[["DName"]])
            return db, build_maintainer(db)[0]

        (db_a, via_apply), (db_b, via_adhoc) = world(), world()
        rng = random.Random(3)
        for i in range(8):
            pick = (emp_modify, dept_modify)[i % 2]
            deltas = pick(db_a, rng, delta=i + 1).deltas
            if i % 3 == 2:  # a second shape: a new employee rides along
                deltas.setdefault("Emp", Delta()).inserts.add((f"new{i}", "dept00001", 9), 1)
            got = via_apply.apply(Transaction("nope", deltas))
            want = via_adhoc.apply_adhoc(Transaction("nope", deltas), name="nope")
            assert got == want
            assert db_a.counter.snapshot() == db_b.counter.snapshot()
        assert {r.name: r.contents() for r in db_a} == {r.name: r.contents() for r in db_b}
        assert via_apply.plan_cache.stats == via_adhoc.plan_cache.stats
        assert via_apply.plan_cache.stats.misses > 1 and via_apply.plan_cache.stats.hits > 0
        assert via_apply.last_plan[0].name == "nope"
        via_apply.verify()


class TestAccounting:
    def test_sumofsals_plan_measured_cost(self, small_paper_db):
        """Measured I/O per transaction tracks the analytic 3.5 (small
        deviations only from constraint flips at the root)."""
        maintainer, dag, gids = build_maintainer(small_paper_db)
        rng = random.Random(3)
        small_paper_db.counter.reset()
        n = 20
        for i in range(n):
            txn = emp_modify(small_paper_db, rng, 3) if i % 2 else dept_modify(
                small_paper_db, rng, 5
            )
            maintainer.apply(txn)
        per_txn = small_paper_db.counter.total / n
        assert 2.5 <= per_txn <= 4.5

    def test_base_updates_uncharged_by_default(self, small_paper_db):
        maintainer, *_ = build_maintainer(small_paper_db, extra_names=())
        rng = random.Random(4)
        small_paper_db.counter.reset()
        maintainer.apply(emp_modify(small_paper_db, rng, 0 or 1))
        # Only maintenance I/O: queries on Emp/Dept, not the base write.
        snap = small_paper_db.counter.snapshot()
        assert snap.tuple_writes == 0


class TestFetch:
    def test_fetch_reduces_columns_by_fd(self, small_paper_db):
        maintainer, dag, gids = build_maintainer(small_paper_db, extra_names=("join",))
        memo = dag.memo
        join_gid = memo.find(gids["join"])
        dept = sorted(small_paper_db.relation("Dept").contents().rows())[0]
        # Fetch by (Budget, DName): reduction probes by DName only.
        rows = maintainer.fetch(
            join_gid, frozenset({"Budget", "DName"}), {(dept[2], dept[0])}
        )
        assert rows.total() == 5  # the department's employees

    @pytest.mark.parametrize("n_keys", [3, 20])
    def test_unmaterialized_fetch_runs_the_plan_the_model_prices(self, small_paper_db, n_keys):
        """SumOfSals unmaterialized: a key costs a probe of Emp by DName
        (1 + 5 pages), a scan costs Emp's 100 rows. Three keys are probed
        (18 pages), all twenty departments are cheaper to scan (100 < 120);
        either way the measured I/O is the model's lookup estimate."""
        maintainer, dag, gids = build_maintainer(small_paper_db, extra_names=())
        gid = dag.memo.find(gids["SumOfSals"])
        names = sorted(row[0] for row in small_paper_db.relation("Dept").rows())
        keys = {(name,) for name in names[:n_keys]}
        columns = frozenset({"DName"})
        model = maintainer.cost_model
        estimate = model.lookup_cost(gid, columns, len(keys), maintainer.marking)
        scanned = len(keys) * model.per_key_cost(gid, columns, maintainer.marking) >= (
            model.scan_cost(gid, maintainer.marking)
        )
        assert scanned == (n_keys == 20)
        before = small_paper_db.counter.snapshot()
        rows = maintainer.fetch(gid, columns, keys)
        measured = small_paper_db.counter.snapshot() - before
        assert measured.total == estimate == (100 if scanned else 18)
        assert measured.index_reads == (0 if scanned else n_keys)
        assert {row[0] for row in rows.rows()} == {k[0] for k in keys}

    def test_fetch_empty_keys(self, small_paper_db):
        maintainer, dag, gids = build_maintainer(small_paper_db)
        assert not maintainer.fetch(dag.root, frozenset({"DName"}), set())

    def test_group_expression_roundtrip(self, small_paper_db):
        maintainer, dag, gids = build_maintainer(small_paper_db)
        expr = group_expression(dag.memo, gids["SumOfSals"])
        assert evaluate(expr, small_paper_db) == evaluate(
            sum_of_sals_tree(), small_paper_db
        )


class TestChooseTrack:
    @pytest.mark.parametrize("self_maintenance", [True, False])
    def test_matches_optimizer_on_every_marking(
        self, small_paper_db, paper_dag, paper_estimator, self_maintenance
    ):
        """An ad-hoc track is the optimizer's track for the same marking,
        with the self-maintenance switch honoured on both sides."""
        import itertools

        memo = paper_dag.memo
        cost_model = PageIOCostModel(
            memo,
            paper_estimator,
            CostConfig(root_group=paper_dag.root, self_maintenance=self_maintenance),
        )
        optional = [
            memo.find(g) for g in paper_dag.candidate_groups() if g != paper_dag.root
        ]
        markings = [
            frozenset({paper_dag.root, *extra})
            for r in range(len(optional) + 1)
            for extra in itertools.combinations(optional, r)
        ]
        assert len(markings) == 16
        for marking in markings:
            maintainer = ViewMaintainer(
                small_paper_db, paper_dag, marking, (), {}, paper_estimator, cost_model
            )
            for txn in paper_transactions():
                expected = evaluate_view_set(
                    memo, marking, [txn], cost_model, paper_estimator
                ).per_txn[txn.name].track
                chosen = maintainer.choose_track(txn)
                assert {g: op.id for g, op in chosen.items()} == {
                    g: op.id for g, op in expected.items()
                }, (sorted(marking), txn.name)
