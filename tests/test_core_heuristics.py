"""Tests for the Section 5 heuristics."""

import pytest

from repro.algebra.operators import Select, Union, project_columns
from repro.algebra.predicates import Compare
from repro.algebra.scalar import col, lit
from repro.core.heuristics import (
    enumerate_trees,
    greedy_view_set,
    heuristic_single_tree,
    heuristic_single_view_set,
    select_tree,
    structural_marking,
    tree_evaluation_cost,
    tree_update_depth_penalty,
)
from repro.core.optimizer import optimal_view_set
from repro.dag.builder import build_dag
from repro.workload.paperdb import dept_scan, emp_scan


class TestTreeEnumeration:
    def test_paper_dag_has_two_trees(self, paper_dag):
        trees = list(enumerate_trees(paper_dag.memo, paper_dag.root))
        assert len(trees) == 2

    def test_limit_respected(self, paper_dag):
        assert len(list(enumerate_trees(paper_dag.memo, paper_dag.root, limit=1))) == 1

    def test_trees_are_consistent_choices(self, paper_dag):
        memo = paper_dag.memo
        for tree in enumerate_trees(memo, paper_dag.root):
            for gid, op in tree.items():
                assert memo.find(op.group_id) == gid


class TestTreeScoring:
    def test_evaluation_cost_positive(self, paper_dag, paper_estimator):
        for tree in enumerate_trees(paper_dag.memo, paper_dag.root):
            assert tree_evaluation_cost(paper_dag.memo, tree, paper_estimator) > 0

    def test_depth_penalty_prefers_shallow_updates(
        self, paper_dag, paper_estimator, paper_txns
    ):
        trees = list(enumerate_trees(paper_dag.memo, paper_dag.root))
        penalties = [
            tree_update_depth_penalty(
                paper_dag.memo, t, paper_dag.root, paper_txns, paper_estimator
            )
            for t in trees
        ]
        assert all(p > 0 for p in penalties)

    def test_select_tree_returns_choice(self, paper_dag, paper_estimator, paper_txns):
        tree = select_tree(
            paper_dag.memo, paper_dag.root, paper_txns, paper_estimator
        )
        assert paper_dag.root in tree


class TestSingleTreeHeuristic:
    def test_finds_paper_optimum(
        self, paper_dag, paper_txns, paper_cost_model, paper_estimator, paper_groups
    ):
        """The update-aware tree contains SumOfSals, so the heuristic still
        finds the globally optimal view set on the paper's example."""
        result = heuristic_single_tree(
            paper_dag, paper_txns, paper_cost_model, paper_estimator
        )
        assert result.best.weighted_cost == 3.5

    def test_searches_fewer_sets(
        self, paper_dag, paper_txns, paper_cost_model, paper_estimator
    ):
        heuristic = heuristic_single_tree(
            paper_dag, paper_txns, paper_cost_model, paper_estimator
        )
        exhaustive = optimal_view_set(
            paper_dag, paper_txns, paper_cost_model, paper_estimator
        )
        assert heuristic.view_sets_considered <= exhaustive.view_sets_considered


class TestStructuralMarking:
    def test_marks_joins_and_aggregates(self, paper_dag, paper_estimator, paper_txns):
        memo = paper_dag.memo
        tree = select_tree(memo, paper_dag.root, paper_txns, paper_estimator)
        marked = structural_marking(memo, tree, paper_dag.root)
        assert paper_dag.root in marked
        from repro.algebra.operators import GroupAggregate, Join

        for gid, op in tree.items():
            if isinstance(op.template, (Join, GroupAggregate)):
                assert gid in marked

    def test_distinct_marks_its_input(self):
        """SQL DISTINCT over a UNION ALL: the union group feeds the DISTINCT
        projection, so heuristic 2 marks it beside the root."""
        view = project_columns(
            Union(
                project_columns(emp_scan(), ["DName"]),
                project_columns(dept_scan(), ["DName"]),
            ),
            ["DName"],
            dedup=True,
        )
        dag = build_dag(view)
        memo = dag.memo
        (union,) = [
            g.id for g in memo.groups() if any(isinstance(op.template, Union) for op in g.ops)
        ]
        (tree,) = enumerate_trees(memo, dag.root)
        marked = structural_marking(memo, tree, dag.root)
        assert sorted(marked) == sorted({memo.find(union), memo.find(dag.root)})

    def test_distinct_over_a_selection_marks_only_the_root(self):
        pred = Compare(">", col("Salary"), lit(10))
        view = project_columns(Select(emp_scan(), pred), ["DName"], dedup=True)
        dag = build_dag(view)
        (tree,) = enumerate_trees(dag.memo, dag.root)
        assert structural_marking(dag.memo, tree, dag.root) == {dag.memo.find(dag.root)}

    def test_single_view_set_never_worse_than_nothing(
        self, paper_dag, paper_txns, paper_cost_model, paper_estimator
    ):
        from repro.core.optimizer import evaluate_view_set

        chosen = heuristic_single_view_set(
            paper_dag, paper_txns, paper_cost_model, paper_estimator
        )
        nothing = evaluate_view_set(
            paper_dag.memo,
            frozenset({paper_dag.root}),
            paper_txns,
            paper_cost_model,
            paper_estimator,
        )
        assert chosen.weighted_cost <= nothing.weighted_cost


class TestApproximateCosting:
    def test_finds_paper_optimum(
        self, paper_dag, paper_txns, paper_cost_model, paper_estimator, paper_groups
    ):
        from repro.core.heuristics import approximate_view_set

        result = approximate_view_set(
            paper_dag, paper_txns, paper_cost_model, paper_estimator
        )
        assert result.best_marking == frozenset(
            {paper_dag.root, paper_groups["SumOfSals"]}
        )
        assert result.best.weighted_cost == 3.5

    def test_costs_are_approximate_upper_context(
        self, paper_dag, paper_txns, paper_cost_model, paper_estimator
    ):
        """Approximate evaluations ignore cross-view query improvements, so
        per-set costs can only be ≥ the exact ones."""
        from repro.core.heuristics import approximate_view_set
        from repro.core.optimizer import evaluate_view_set

        result = approximate_view_set(
            paper_dag, paper_txns, paper_cost_model, paper_estimator
        )
        for ev in result.evaluated:
            exact = evaluate_view_set(
                paper_dag.memo, ev.marking, paper_txns, paper_cost_model,
                paper_estimator,
            )
            assert ev.weighted_cost >= exact.weighted_cost - 1e-9

    def test_search_space_guard(
        self, paper_dag, paper_txns, paper_cost_model, paper_estimator
    ):
        from repro.core.heuristics import approximate_view_set
        from repro.core.optimizer import SearchSpaceError

        with pytest.raises(SearchSpaceError):
            approximate_view_set(
                paper_dag,
                paper_txns,
                paper_cost_model,
                paper_estimator,
                max_candidates=1,
            )


class TestGreedy:
    def test_finds_paper_optimum(
        self, paper_dag, paper_txns, paper_cost_model, paper_estimator, paper_groups
    ):
        result = greedy_view_set(
            paper_dag, paper_txns, paper_cost_model, paper_estimator
        )
        assert result.best_marking == frozenset(
            {paper_dag.root, paper_groups["SumOfSals"]}
        )

    def test_quadratic_not_exponential(
        self, paper_dag, paper_txns, paper_cost_model, paper_estimator
    ):
        result = greedy_view_set(
            paper_dag, paper_txns, paper_cost_model, paper_estimator
        )
        n = len(result.candidates)
        assert result.view_sets_considered <= 1 + n * (n + 1)

    def test_never_increases_cost(
        self, paper_dag, paper_txns, paper_cost_model, paper_estimator
    ):
        from repro.core.optimizer import evaluate_view_set

        result = greedy_view_set(
            paper_dag, paper_txns, paper_cost_model, paper_estimator
        )
        nothing = evaluate_view_set(
            paper_dag.memo,
            frozenset({paper_dag.root}),
            paper_txns,
            paper_cost_model,
            paper_estimator,
        )
        assert result.best.weighted_cost <= nothing.weighted_cost
