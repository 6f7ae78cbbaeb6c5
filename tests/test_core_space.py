"""Tests for space-budgeted view-set selection."""

import pytest

from repro.core.heuristics import greedy_view_set
from repro.core.optimizer import optimal_view_set
from repro.core.space import marking_space, space_time_curve, view_space_pages


class TestSpaceAccounting:
    def test_view_space_includes_index(
        self, paper_dag, paper_groups, paper_estimator, paper_cost_model
    ):
        """SumOfSals: 1000 tuple pages + 1000 DName index entries."""
        pages = view_space_pages(
            paper_dag.memo, paper_groups["SumOfSals"], paper_estimator, paper_cost_model
        )
        assert pages == 2000.0

    def test_join_view_is_larger(
        self, paper_dag, paper_groups, paper_estimator, paper_cost_model
    ):
        join = view_space_pages(
            paper_dag.memo, paper_groups["join"], paper_estimator, paper_cost_model
        )
        agg = view_space_pages(
            paper_dag.memo, paper_groups["SumOfSals"], paper_estimator, paper_cost_model
        )
        assert join > agg

    def test_marking_space_excludes_root_and_leaves(
        self, paper_dag, paper_groups, paper_estimator, paper_cost_model
    ):
        marking = frozenset(
            {paper_dag.root, paper_groups["SumOfSals"], paper_groups["Emp"]}
        )
        space = marking_space(paper_dag, marking, paper_estimator, paper_cost_model)
        assert space == 2000.0


class TestBudgetedSearch:
    def test_generous_budget_matches_unbudgeted(
        self, paper_dag, paper_txns, paper_cost_model, paper_estimator
    ):
        result = optimal_view_set(
            paper_dag, paper_txns, paper_cost_model, paper_estimator, budget=1e9
        )
        assert result.best.weighted_cost == 3.5

    def test_zero_budget_forces_nothing(
        self, paper_dag, paper_txns, paper_cost_model, paper_estimator
    ):
        result = optimal_view_set(
            paper_dag, paper_txns, paper_cost_model, paper_estimator, budget=0.0
        )
        assert result.best_marking == frozenset({paper_dag.root})
        assert result.best.weighted_cost == 12.0

    def test_tight_budget_still_fits_sumofsals(
        self, paper_dag, paper_groups, paper_txns, paper_cost_model, paper_estimator
    ):
        """2000 pages buys SumOfSals but not the 11000-page join view."""
        result = optimal_view_set(
            paper_dag, paper_txns, paper_cost_model, paper_estimator, budget=2000.0
        )
        assert paper_groups["SumOfSals"] in result.best_marking
        assert paper_groups["join"] not in result.best_marking
        assert result.best.weighted_cost == 3.5

    def test_every_feasible_set_within_budget(
        self, paper_dag, paper_txns, paper_cost_model, paper_estimator
    ):
        budget = 2500.0
        result = optimal_view_set(
            paper_dag, paper_txns, paper_cost_model, paper_estimator, budget=budget
        )
        for ev in result.evaluated:
            assert (
                marking_space(paper_dag, ev.marking, paper_estimator, paper_cost_model)
                <= budget
            )

    def test_infeasible_sets_pruned_uncosted(
        self, paper_dag, paper_txns, paper_cost_model, paper_estimator
    ):
        result = optimal_view_set(
            paper_dag, paper_txns, paper_cost_model, paper_estimator, budget=2500.0
        )
        assert result.view_sets_pruned > 0
        assert result.view_sets_pruned == result.view_sets_considered - len(
            result.evaluated
        )
        assert result.stats.view_sets_costed == len(result.evaluated)

    def test_no_feasible_set_raises(
        self, paper_dag, paper_txns, paper_cost_model, paper_estimator
    ):
        with pytest.raises(ValueError):
            optimal_view_set(
                paper_dag, paper_txns, paper_cost_model, paper_estimator, budget=-1.0
            )


class TestGreedyBudgeted:
    def test_matches_exhaustive_on_paper(
        self, paper_dag, paper_txns, paper_cost_model, paper_estimator
    ):
        greedy = greedy_view_set(
            paper_dag, paper_txns, paper_cost_model, paper_estimator, budget=2000.0
        )
        assert greedy.best.weighted_cost == 3.5

    def test_respects_budget(
        self, paper_dag, paper_txns, paper_cost_model, paper_estimator
    ):
        greedy = greedy_view_set(
            paper_dag, paper_txns, paper_cost_model, paper_estimator, budget=100.0
        )
        assert (
            marking_space(
                paper_dag, greedy.best_marking, paper_estimator, paper_cost_model
            )
            <= 100.0
        )
        assert greedy.best.weighted_cost == 12.0


class TestCurve:
    def test_monotone_nonincreasing(
        self, paper_dag, paper_txns, paper_cost_model, paper_estimator
    ):
        curve = space_time_curve(
            paper_dag,
            paper_txns,
            paper_cost_model,
            paper_estimator,
            budgets=[0, 1000, 2000, 15000],
        )
        costs = [point["cost"] for point in curve]
        assert costs == sorted(costs, reverse=True)
        assert costs[0] == 12.0
        assert costs[-1] == 3.5

    def test_space_used_within_budget(
        self, paper_dag, paper_txns, paper_cost_model, paper_estimator
    ):
        curve = space_time_curve(
            paper_dag,
            paper_txns,
            paper_cost_model,
            paper_estimator,
            budgets=[0, 2000, 15000],
            exhaustive=False,
        )
        for point in curve:
            assert point["space_used"] <= point["budget"]
