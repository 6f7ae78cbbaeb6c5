"""Property-based tests: optimizer invariants.

* the exhaustive best is a lower bound for every evaluated view set;
* enlarging a marking never increases the pure query cost of a transaction
  (materialized views only help queries — monotonicity);
* shielding never changes the optimum, only the work done;
* greedy never beats exhaustive but never does worse than ∅;
* under a space budget both searches stay within it and exhaustive is
  never beaten by greedy;
* approximate costing never prices a view set below its exact cost.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heuristics import approximate_view_set, greedy_view_set
from repro.core.optimizer import evaluate_view_set, optimal_view_set
from repro.core.space import marking_space
from repro.cost.estimates import DagEstimator
from repro.cost.model import CostConfig
from repro.cost.page_io import PageIOCostModel
from repro.dag.builder import build_dag
from repro.storage.statistics import Catalog, TableStats
from repro.workload.generators import chain_view
from repro.workload.paperdb import problem_dept_tree
from repro.workload.transactions import modify_txn

# Randomized catalogs: vary table sizes and fanouts.
catalogs = st.builds(
    lambda depts, fanout: Catalog(
        {
            "Dept": TableStats(
                float(depts),
                {"DName": float(depts), "MName": float(depts), "Budget": 50.0},
            ),
            "Emp": TableStats(
                float(depts * fanout),
                {
                    "EName": float(depts * fanout),
                    "DName": float(depts),
                    "Salary": 30.0,
                },
            ),
        }
    ),
    depts=st.integers(2, 5000),
    fanout=st.integers(1, 50),
)

weights = st.tuples(
    st.floats(0.1, 10.0, allow_nan=False), st.floats(0.1, 10.0, allow_nan=False)
)


def _setup(catalog, w_emp=1.0, w_dept=1.0):
    dag = build_dag(problem_dept_tree())
    estimator = DagEstimator(dag.memo, catalog)
    cost_model = PageIOCostModel(
        dag.memo, estimator, CostConfig(charge_root_update=False, root_group=dag.root)
    )
    txns = (
        modify_txn(">Emp", "Emp", {"Salary"}, weight=w_emp),
        modify_txn(">Dept", "Dept", {"Budget"}, weight=w_dept),
    )
    return dag, estimator, cost_model, txns


class TestExhaustive:
    @settings(max_examples=20, deadline=None)
    @given(catalogs, weights)
    def test_best_is_minimum(self, catalog, ws):
        dag, estimator, cost_model, txns = _setup(catalog, *ws)
        result = optimal_view_set(dag, txns, cost_model, estimator)
        assert result.best.weighted_cost == min(
            ev.weighted_cost for ev in result.evaluated
        )
        assert math.isfinite(result.best.weighted_cost)

    @settings(max_examples=20, deadline=None)
    @given(catalogs)
    def test_marking_monotone_for_queries(self, catalog):
        """Query cost with {root, X} ≤ query cost with {root} per txn."""
        dag, estimator, cost_model, txns = _setup(catalog)
        base = evaluate_view_set(
            dag.memo, frozenset({dag.root}), txns, cost_model, estimator
        )
        for extra in dag.candidate_groups():
            extra = dag.memo.find(extra)
            if extra == dag.root:
                continue
            marked = evaluate_view_set(
                dag.memo,
                frozenset({dag.root, extra}),
                txns,
                cost_model,
                estimator,
            )
            for name in marked.per_txn:
                assert (
                    marked.per_txn[name].query_cost
                    <= base.per_txn[name].query_cost + 1e-9
                )


class TestShielding:
    @settings(max_examples=15, deadline=None)
    @given(catalogs, weights)
    def test_shielding_preserves_optimum(self, catalog, ws):
        dag, estimator, cost_model, txns = _setup(catalog, *ws)
        exhaustive = optimal_view_set(dag, txns, cost_model, estimator)
        shielded = optimal_view_set(
            dag, txns, cost_model, estimator, shielding=True
        )
        assert shielded.best.weighted_cost == exhaustive.best.weighted_cost


class TestMemoization:
    @settings(max_examples=20, deadline=None)
    @given(catalogs, weights)
    def test_cached_equals_uncached(self, catalog, ws):
        """The memoized search is an optimization, not an approximation:
        on a fresh DAG/estimator/cost-model per variant, every evaluated
        view set gets bit-identical costs with and without the cache."""
        dag, estimator, cost_model, txns = _setup(catalog, *ws)
        cached = optimal_view_set(dag, txns, cost_model, estimator)
        dag2, estimator2, cost_model2, txns2 = _setup(catalog, *ws)
        plain = optimal_view_set(
            dag2, txns2, cost_model2, estimator2, use_cache=False
        )
        assert cached.best_marking == plain.best_marking
        assert cached.best.weighted_cost == plain.best.weighted_cost
        assert cached.stats is not None and cached.stats.cache_hits > 0
        for a, b in zip(cached.evaluated, plain.evaluated):
            assert a.marking == b.marking
            assert a.weighted_cost == b.weighted_cost
            for name in a.per_txn:
                assert a.per_txn[name].query_cost == b.per_txn[name].query_cost
                assert a.per_txn[name].update_cost == b.per_txn[name].update_cost


class TestGreedy:
    @settings(max_examples=15, deadline=None)
    @given(catalogs, weights)
    def test_greedy_bounded(self, catalog, ws):
        dag, estimator, cost_model, txns = _setup(catalog, *ws)
        exhaustive = optimal_view_set(dag, txns, cost_model, estimator)
        greedy = greedy_view_set(dag, txns, cost_model, estimator)
        nothing = evaluate_view_set(
            dag.memo, frozenset({dag.root}), txns, cost_model, estimator
        )
        assert (
            exhaustive.best.weighted_cost
            <= greedy.best.weighted_cost + 1e-9
        )
        assert greedy.best.weighted_cost <= nothing.weighted_cost + 1e-9


def _chain_setup(k, rows, w_first, w_last):
    dag = build_dag(chain_view(k, aggregate=True))
    catalog = Catalog(
        {
            f"R{i}": TableStats(
                float(rows[i - 1]),
                {
                    f"K{i-1}": float(rows[i - 1]) * 0.9,
                    f"K{i}": float(rows[i - 1]),
                    f"V{i}": 100.0,
                },
            )
            for i in range(1, k + 1)
        }
    )
    estimator = DagEstimator(dag.memo, catalog)
    cost_model = PageIOCostModel(
        dag.memo, estimator, CostConfig(charge_root_update=False, root_group=dag.root)
    )
    txns = (
        modify_txn(">R1", "R1", {"V1"}, weight=w_first),
        modify_txn(f">R{k}", f"R{k}", {f"V{k}"}, weight=w_last),
    )
    return dag, estimator, cost_model, txns


# Random instances: the paper's view under a random catalog, or a k-chain
# join (k = 3, 4) with random table sizes and update weights.
problems = st.one_of(
    st.builds(lambda c, ws: _setup(c, *ws), catalogs, weights),
    st.integers(3, 4).flatmap(
        lambda k: st.builds(
            lambda rows, ws: _chain_setup(k, rows, *ws),
            st.lists(st.integers(10, 5000), min_size=k, max_size=k),
            weights,
        )
    ),
)


class TestFoldedSearches:
    @settings(max_examples=15, deadline=None)
    @given(problems, st.floats(0.0, 3e5, allow_nan=False))
    def test_budgeted_exhaustive_beats_budgeted_greedy(self, problem, budget):
        dag, estimator, cost_model, txns = problem
        exhaustive = optimal_view_set(dag, txns, cost_model, estimator, budget=budget)
        greedy = greedy_view_set(dag, txns, cost_model, estimator, budget=budget)
        for result in (exhaustive, greedy):
            assert (
                marking_space(dag, result.best_marking, estimator, cost_model)
                <= budget
            )
        assert exhaustive.best.weighted_cost <= greedy.best.weighted_cost + 1e-9
        assert exhaustive.view_sets_pruned == exhaustive.view_sets_considered - len(
            exhaustive.evaluated
        )

    @settings(max_examples=15, deadline=None)
    @given(problems)
    def test_approximate_never_below_exact(self, problem):
        dag, estimator, cost_model, txns = problem
        approx = approximate_view_set(dag, txns, cost_model, estimator)
        for ev in approx.evaluated:
            exact = evaluate_view_set(dag.memo, ev.marking, txns, cost_model, estimator)
            assert ev.weighted_cost >= exact.weighted_cost * (1 - 1e-12) - 1e-9

    @settings(max_examples=15, deadline=None)
    @given(problems)
    def test_greedy_never_beats_optimal(self, problem):
        dag, estimator, cost_model, txns = problem
        exhaustive = optimal_view_set(dag, txns, cost_model, estimator)
        greedy = greedy_view_set(dag, txns, cost_model, estimator)
        assert exhaustive.best.weighted_cost <= greedy.best.weighted_cost + 1e-9
