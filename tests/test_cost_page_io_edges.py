"""Edge-case tests for the page-I/O cost model: operators beyond the paper
example (union, difference, dedup, computed projections), scan fallbacks,
and ablation flags."""

import math

import pytest

from repro.algebra.operators import (
    AggSpec,
    Difference,
    GroupAggregate,
    Project,
    Union,
    project_columns,
)
from repro.algebra.scalar import Arith, Col, col, lit
from repro.cost.estimates import DagEstimator
from repro.cost.model import CostConfig
from repro.cost.page_io import PageIOCostModel
from repro.dag.builder import build_dag
from repro.storage.statistics import Catalog
from repro.workload.paperdb import dept_scan, emp_scan
from repro.workload.transactions import modify_txn


def _model(view, catalog=None):
    dag = build_dag(view)
    estimator = DagEstimator(dag.memo, catalog or Catalog.paper_catalog())
    return dag, estimator, PageIOCostModel(dag.memo, estimator)


class TestUnaryOperators:
    def test_dedup_lookup_delegates_to_child(self):
        view = project_columns(project_columns(emp_scan(), ["DName"]), ["DName"], dedup=True)
        dag, est, cm = _model(view)
        cost = cm.lookup_cost(dag.root, ["DName"], 1, frozenset())
        # Probe Emp by DName: 1 + 10 (dedup itself is free CPU).
        assert cost == 11.0

    def test_computed_projection_not_translatable(self):
        view = Project(
            emp_scan(),
            (("EName", Col("EName")), ("Double", Arith("*", col("Salary"), lit(2)))),
        )
        dag, est, cm = _model(view)
        # Lookup by the computed column cannot use any index: scan fallback.
        cost = cm.lookup_cost(dag.root, ["Double"], 1, frozenset())
        assert cost == 10000.0

    def test_renamed_projection_translates(self):
        view = Project(emp_scan(), (("Who", Col("EName")), ("Dept", Col("DName"))))
        dag, est, cm = _model(view)
        cost = cm.lookup_cost(dag.root, ["Dept"], 1, frozenset())
        assert cost == 11.0


class TestSetOperators:
    def test_union_sums_sides(self):
        view = Union(
            project_columns(emp_scan(), ["DName"]),
            project_columns(dept_scan(), ["DName"]),
        )
        dag, est, cm = _model(view)
        cost = cm.lookup_cost(dag.root, ["DName"], 1, frozenset())
        # Emp probe (1+10) + Dept probe (1+1).
        assert cost == 13.0

    def test_difference_sums_sides(self):
        view = Difference(
            project_columns(dept_scan(), ["DName"]),
            project_columns(emp_scan(), ["DName"]),
        )
        dag, est, cm = _model(view)
        cost = cm.lookup_cost(dag.root, ["DName"], 1, frozenset())
        assert cost == 13.0

    def test_marked_setop_is_direct_lookup(self):
        view = Union(
            project_columns(emp_scan(), ["DName"]),
            project_columns(dept_scan(), ["DName"]),
        )
        dag, est, cm = _model(view)
        marking = frozenset({dag.root})
        cost = cm.lookup_cost(dag.root, ["DName"], 1, marking)
        info = est.info(dag.root)
        assert cost == 1.0 + info.fanout(["DName"])


class TestScanCost:
    def test_union_scan(self):
        view = Union(
            project_columns(emp_scan(), ["DName"]),
            project_columns(dept_scan(), ["DName"]),
        )
        dag, est, cm = _model(view)
        assert cm.scan_cost(dag.root, frozenset()) == 11000.0

    def test_aggregate_scan_reads_input(self):
        view = GroupAggregate(emp_scan(), ("DName",), (AggSpec("sum", col("Salary"), "S"),))
        dag, est, cm = _model(view)
        assert cm.scan_cost(dag.root, frozenset()) == 10000.0


class TestUpdateCostEdges:
    def test_unaffected_zero(self):
        view = GroupAggregate(emp_scan(), ("DName",), (AggSpec("sum", col("Salary"), "S"),))
        dag, est, cm = _model(view)
        txn = modify_txn(">Dept", "Dept", {"Budget"})
        # Dept is not even in this DAG — build a two-relation view instead.
        from repro.algebra.operators import Join

        view2 = GroupAggregate(
            Join(emp_scan(), dept_scan()),
            ("DName",),
            (AggSpec("sum", col("Salary"), "S"),),
        )
        dag2, est2, cm2 = _model(view2)
        emp_leaf = dag2.memo.leaf_group_id("Emp")
        assert cm2.update_cost(emp_leaf, txn) == 0.0

    def test_root_charging_flag(self):
        view = GroupAggregate(emp_scan(), ("DName",), (AggSpec("sum", col("Salary"), "S"),))
        dag = build_dag(view)
        est = DagEstimator(dag.memo, Catalog.paper_catalog())
        txn = modify_txn(">Emp", "Emp", {"Salary"})
        excluded = PageIOCostModel(
            dag.memo, est, CostConfig(charge_root_update=False, root_group=dag.root)
        )
        charged = PageIOCostModel(
            dag.memo, est, CostConfig(charge_root_update=True, root_group=dag.root)
        )
        assert excluded.update_cost(dag.root, txn) == 0.0
        assert charged.update_cost(dag.root, txn) == 3.0


class TestAblationFlags:
    def test_no_fds_changes_reduction(self, paper_dag, paper_groups):
        est = DagEstimator(paper_dag.memo, Catalog.paper_catalog(), use_fds=False)
        info = est.info(paper_groups["join"])
        assert info.reduce(["DName", "Budget"]) == {"DName", "Budget"}

    def test_no_completeness_strips_sets(self, paper_dag, paper_groups, paper_txns):
        est = DagEstimator(
            paper_dag.memo, Catalog.paper_catalog(), use_completeness=False
        )
        _, t_dept = paper_txns
        delta = est.delta(paper_groups["join"], t_dept)
        assert not delta.complete_on

    def test_no_mqo_sums_duplicates(self, paper_dag, paper_groups, paper_txns):
        from repro.dag.queries import MaintenanceQuery

        est = DagEstimator(paper_dag.memo, Catalog.paper_catalog())
        cm = PageIOCostModel(
            paper_dag.memo, est, CostConfig(mqo=False, root_group=paper_dag.root)
        )
        t_emp, _ = paper_txns
        q = MaintenanceQuery(
            paper_groups["Dept"], frozenset({"DName"}), 1, 0, "R", "semijoin"
        )
        q2 = MaintenanceQuery(
            paper_groups["Dept"], frozenset({"DName"}), 1, 1, "R", "semijoin"
        )
        assert cm.total_query_cost([q, q2], frozenset(), t_emp) == 4.0

    def test_no_self_maintenance_changes_optimum_cost(
        self, paper_dag, paper_groups, paper_txns
    ):
        from repro.core.optimizer import evaluate_view_set

        est = DagEstimator(paper_dag.memo, Catalog.paper_catalog())
        cm = PageIOCostModel(
            paper_dag.memo,
            est,
            CostConfig(root_group=paper_dag.root, self_maintenance=False),
        )
        ev = evaluate_view_set(
            paper_dag.memo,
            frozenset({paper_dag.root, paper_groups["SumOfSals"]}),
            paper_txns,
            cm,
            est,
        )
        assert ev.per_txn[">Emp"].total == 16.0
