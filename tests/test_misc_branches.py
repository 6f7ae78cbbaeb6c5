"""Tests for assorted less-travelled branches across the packages."""

import pytest

from repro.core.heuristics import select_tree
from repro.core.optimizer import evaluate_view_set
from repro.workload.transactions import paper_transactions


class TestHeuristicVariants:
    def test_select_tree_query_first(self, paper_dag, paper_estimator, paper_txns):
        """update_aware=False ranks by evaluation cost first."""
        tree = select_tree(
            paper_dag.memo,
            paper_dag.root,
            paper_txns,
            paper_estimator,
            update_aware=False,
        )
        assert paper_dag.root in tree

    def test_track_limit_caps_enumeration(
        self, paper_dag, paper_txns, paper_cost_model, paper_estimator
    ):
        limited = evaluate_view_set(
            paper_dag.memo,
            frozenset({paper_dag.root}),
            paper_txns,
            paper_cost_model,
            paper_estimator,
            track_limit=1,
        )
        full = evaluate_view_set(
            paper_dag.memo,
            frozenset({paper_dag.root}),
            paper_txns,
            paper_cost_model,
            paper_estimator,
        )
        # With only one track examined the cost can only be ≥ the true min.
        for name in full.per_txn:
            assert limited.per_txn[name].total >= full.per_txn[name].total


class TestAssertionMappingInput:
    def test_expression_mapping_accepted(self, small_paper_db):
        from repro.constraints.assertions import AssertionSystem
        from repro.workload.paperdb import problem_dept_tree

        system = AssertionSystem(
            small_paper_db,
            {"Budget": problem_dept_tree()},
            paper_transactions(),
        )
        assert "Budget" in system.assertions
        assert system.all_satisfied()


class TestMaintainerErrors:
    def test_view_contents_requires_materialization(self, small_paper_db):
        from repro.cost.estimates import DagEstimator
        from repro.cost.model import CostConfig
        from repro.cost.page_io import PageIOCostModel
        from repro.dag.builder import build_dag
        from repro.ivm.maintainer import ViewMaintainer
        from repro.storage.statistics import Catalog
        from repro.workload.paperdb import problem_dept_tree

        dag = build_dag(problem_dept_tree())
        estimator = DagEstimator(dag.memo, Catalog.from_database(small_paper_db))
        maintainer = ViewMaintainer(
            small_paper_db,
            dag,
            frozenset({dag.root}),
            paper_transactions(),
            {},
            estimator,
            PageIOCostModel(dag.memo, estimator, CostConfig(root_group=dag.root)),
        )
        with pytest.raises(KeyError):
            maintainer.view_contents(dag.root)  # materialize() not called

    def test_adhoc_empty_txn(self, small_paper_db):
        from repro.cost.estimates import DagEstimator
        from repro.cost.model import CostConfig
        from repro.cost.page_io import PageIOCostModel
        from repro.dag.builder import build_dag
        from repro.ivm.delta import Delta
        from repro.ivm.maintainer import ViewMaintainer
        from repro.storage.statistics import Catalog
        from repro.workload.paperdb import problem_dept_tree
        from repro.workload.transactions import Transaction

        dag = build_dag(problem_dept_tree())
        estimator = DagEstimator(dag.memo, Catalog.from_database(small_paper_db))
        maintainer = ViewMaintainer(
            small_paper_db,
            dag,
            frozenset({dag.root}),
            paper_transactions(),
            {},
            estimator,
            PageIOCostModel(dag.memo, estimator, CostConfig(root_group=dag.root)),
        )
        maintainer.materialize()
        assert maintainer.apply_adhoc(Transaction("nop", {"Emp": Delta()})) == {}

