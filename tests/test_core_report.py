"""Tests for the advisor report renderer."""

import pytest

from repro.core.optimizer import optimal_view_set
from repro.core.report import describe_marking, render_report


@pytest.fixture(scope="module")
def rendered(paper_dag, paper_txns, paper_cost_model, paper_estimator):
    result = optimal_view_set(
        paper_dag, paper_txns, paper_cost_model, paper_estimator
    )
    report = render_report(
        paper_dag, result, paper_txns, paper_cost_model, paper_estimator
    )
    return result, report


class TestDescribeMarking:
    def test_roles(self, paper_dag, rendered):
        result, _ = rendered
        lines = describe_marking(paper_dag, result.best_marking)
        assert any("the view itself" in line for _, line in lines)
        assert any("auxiliary" in line for _, line in lines)

    def test_pairs_carry_structured_gids(self, paper_dag, rendered):
        # Callers get the id alongside the rendered line — no re-parsing.
        result, _ = rendered
        pairs = describe_marking(paper_dag, result.best_marking)
        assert [gid for gid, _ in pairs] == sorted(
            paper_dag.memo.find(g) for g in result.best_marking
        )
        for gid, line in pairs:
            assert line.startswith(f"N{gid} ")


class TestRenderReport:
    def test_headline(self, rendered):
        _, report = rendered
        assert "weighted 3.50" in report
        assert "View sets considered: 16" in report

    def test_index_recommendations(self, rendered):
        _, report = rendered
        assert "recommended hash index on (DName)" in report

    def test_per_txn_sections(self, rendered, paper_txns):
        _, report = rendered
        for txn in paper_txns:
            assert txn.name in report
        assert "query 2.00 + update 3.00 = 5.00" in report
        assert "query 2.00 + update 0.00 = 2.00" in report

    def test_queries_listed_with_costs(self, rendered):
        _, report = rendered
        assert "[semijoin]" in report
        assert "— 2.00 I/Os" in report

    def test_top_view_sets_section(self, rendered):
        _, report = rendered
        assert "Best 5 view sets:" in report
        assert "{N6}: weighted 3.50" in report

    def test_shielded_note(self, paper_dag, paper_txns, paper_cost_model, paper_estimator):
        result = optimal_view_set(
            paper_dag, paper_txns, paper_cost_model, paper_estimator, shielding=True
        )
        report = render_report(
            paper_dag, result, paper_txns, paper_cost_model, paper_estimator
        )
        if result.view_sets_pruned:
            assert "pruned by shielding" in report


class TestBaseIndexRecommendations:
    def test_dept_dname_listed(self, rendered):
        _, report = rendered
        assert "Base-relation indexes the plans rely on:" in report
        assert "Dept: hash index on (DName)" in report

    def test_recommend_function(
        self, paper_dag, paper_txns, paper_cost_model, paper_estimator
    ):
        from repro.core.optimizer import optimal_view_set
        from repro.core.report import recommend_base_indexes

        result = optimal_view_set(
            paper_dag, paper_txns, paper_cost_model, paper_estimator
        )
        needed = recommend_base_indexes(
            paper_dag, result, paper_txns, paper_cost_model, paper_estimator
        )
        # The {SumOfSals} plan probes Dept by DName (Q2Re) and the SumOfSals
        # view (not a base relation) by DName; no Emp probe is needed.
        assert needed == {"Dept": {("DName",)}}
