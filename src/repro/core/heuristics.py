"""Heuristic pruning of the search space (paper Section 5).

Three families, exactly as the paper lays out:

* **Single expression tree** — restrict the candidate views to the
  equivalence nodes of one expression tree. The tree is chosen either as
  the cheapest tree for evaluating V as a query, or update-aware: among
  low-cost trees prefer those where relations with high transaction weight
  sit close to the root (Example 3.1's lesson).
* **Single view set** — given a tree, mark every equivalence node that is
  the parent of a join or grouping/aggregation operator (or the input of a
  DISTINCT projection), materialize that set if it beats materializing
  nothing.
* **Greedy / approximate costing** — hill-climb: repeatedly add the single
  candidate view that most reduces the weighted cost, keeping one cost per
  step instead of exploring all subsets; or keep the exhaustive search and
  give each query one fixed cost.

None of them owns a subset loop: single-tree and approximate costing run
:func:`~repro.core.optimizer.optimal_view_set` (over one tree's nodes, or
under an approximate cost model), the structural rule costs two view sets,
and :func:`greedy_view_set` is the one hill-climb, which also serves the
space-budgeted search.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.algebra.operators import GroupAggregate, Join, Project, Select
from repro.cost.estimates import DagEstimator
from repro.cost.model import CostModel
from repro.core.memoize import SearchCache
from repro.core.optimizer import evaluate_view_set, optimal_view_set
from repro.core.plan import OptimizationResult, ViewSetEvaluation
from repro.core.space import view_space_pages
from repro.dag.builder import ViewDag
from repro.dag.memo import Memo
from repro.dag.nodes import OperationNode
from repro.dag.queries import MaintenanceQuery
from repro.workload.transactions import TransactionType

# A fully-chosen expression tree inside the DAG: group id -> operation node.
TreeChoice = dict[int, OperationNode]


def enumerate_trees(
    memo: Memo, root: int, limit: int = 500
) -> Iterator[TreeChoice]:
    """Enumerate expression trees represented by the DAG (up to ``limit``)."""
    root = memo.find(root)
    produced = 0

    def recurse(pending: list[int], choice: TreeChoice) -> Iterator[TreeChoice]:
        nonlocal produced
        while pending:
            gid = pending[-1]
            if memo.group(gid).is_leaf or gid in choice:
                pending = pending[:-1]
                continue
            for op in memo.group(gid).ops:
                children = [memo.find(c) for c in op.child_ids]
                yield from recurse(pending[:-1] + children, {**choice, gid: op})
            return
        produced += 1
        yield dict(choice)

    for tree in recurse([root], {}):
        yield tree
        if produced >= limit:
            return


def tree_evaluation_cost(memo: Memo, tree: TreeChoice, estimator: DagEstimator) -> float:
    """A simple query-evaluation cost for one tree: read every leaf it
    touches and pay one unit per intermediate result row produced."""
    cost = 0.0
    leaves: set[int] = set()
    for gid, op in tree.items():
        cost += estimator.info(gid).rows
        for cid in op.child_ids:
            cid = memo.find(cid)
            if memo.group(cid).is_leaf:
                leaves.add(cid)
    for leaf in leaves:
        cost += estimator.info(leaf).rows
    return cost


def tree_update_depth_penalty(
    memo: Memo,
    tree: TreeChoice,
    root: int,
    txns: Sequence[TransactionType],
    estimator: DagEstimator,
) -> float:
    """Σ_i f_i × (depth of T_i's updated relations in the tree).

    The paper's second-phase check: prefer trees where heavily-updated
    relations are close to the root, because views containing them have
    high maintenance cost.
    """
    root = memo.find(root)
    depth: dict[int, int] = {root: 0}
    order = [root]
    while order:
        gid = order.pop()
        op = tree.get(gid)
        if op is None:
            continue
        for cid in op.child_ids:
            cid = memo.find(cid)
            if cid not in depth or depth[cid] < depth[gid] + 1:
                depth[cid] = depth[gid] + 1
                order.append(cid)
    penalty = 0.0
    for txn in txns:
        for gid, d in depth.items():
            group = memo.group(gid)
            if group.is_leaf and group.base_relation in txn.updated_relations:
                penalty += txn.weight * d
    return penalty


def select_tree(
    memo: Memo,
    root: int,
    txns: Sequence[TransactionType],
    estimator: DagEstimator,
    update_aware: bool = True,
    limit: int = 500,
) -> TreeChoice:
    """Choose one expression tree: cheapest to evaluate, tie-broken (or,
    when ``update_aware``, lexicographically dominated) by the update-depth
    penalty."""
    best: TreeChoice | None = None
    best_key: tuple[float, float] | None = None
    for tree in enumerate_trees(memo, root, limit):
        cost = tree_evaluation_cost(memo, tree, estimator)
        penalty = tree_update_depth_penalty(memo, tree, root, txns, estimator)
        key = (penalty, cost) if update_aware else (cost, penalty)
        if best_key is None or key < best_key:
            best, best_key = tree, key
    assert best is not None
    return best


def heuristic_single_tree(
    dag: ViewDag,
    txns: Sequence[TransactionType],
    cost_model: CostModel,
    estimator: DagEstimator,
    update_aware: bool = True,
    max_candidates: int = 16,
    cache: SearchCache | None = None,
) -> OptimizationResult:
    """Section 5 heuristic 1: exhaustive search restricted to the
    equivalence nodes of a single expression tree."""
    memo = dag.memo
    root = dag.root
    tree = select_tree(memo, root, txns, estimator, update_aware)
    candidates = sorted(tree)
    return optimal_view_set(
        dag,
        txns,
        cost_model,
        estimator,
        candidates=candidates,
        max_candidates=max_candidates,
        cache=cache,
    )


def structural_marking(memo: Memo, tree: TreeChoice, root: int) -> frozenset[int]:
    """Section 5 heuristic 2's marking rule over a tree: mark every
    equivalence node whose operator is a join or a grouping/aggregation, or
    that feeds a DISTINCT projection; never mark selections (nor a base
    relation, which is stored already)."""
    marked = {memo.find(root)}
    for gid, op in tree.items():
        if isinstance(op.template, (Join, GroupAggregate)):
            marked.add(memo.find(gid))
        if isinstance(op.template, Project) and op.template.dedup:
            child = memo.find(op.child_ids[0])
            child_op = tree.get(child)
            if child_op is not None and not isinstance(child_op.template, Select):
                marked.add(child)
    return frozenset(marked)


def heuristic_single_view_set(
    dag: ViewDag,
    txns: Sequence[TransactionType],
    cost_model: CostModel,
    estimator: DagEstimator,
    update_aware: bool = True,
) -> ViewSetEvaluation:
    """Section 5 heuristic 2: one structurally-chosen view set, kept only
    if it beats materializing nothing."""
    memo = dag.memo
    root = dag.root
    tree = select_tree(memo, root, txns, estimator, update_aware)
    marked = structural_marking(memo, tree, root)
    cache = SearchCache(memo, cost_model, estimator)
    candidate = evaluate_view_set(
        memo, marked, txns, cost_model, estimator, cache=cache
    )
    nothing = evaluate_view_set(
        memo, frozenset({root}), txns, cost_model, estimator, cache=cache
    )
    return candidate if candidate.weighted_cost < nothing.weighted_cost else nothing


class _TargetOnlyCostModel(CostModel):
    """Section 5's *approximate costing* as a cost model over an exact one.

    Each query is priced as if its own target were the only materialized
    view that could help it, and a batch pays for every query (no MQO).
    The cross-view interactions that make exact costing non-local (paper
    §4.1) are deliberately ignored, which is what makes this approximate.
    A query's cost then depends on one bit of the marking, so each query
    is priced at most twice.
    """

    def __init__(self, exact: CostModel) -> None:
        self.exact = exact
        self.config = exact.config
        self._costs: dict[tuple, float] = {}

    def query_cost(
        self, query: MaintenanceQuery, marking: frozenset[int], txn: TransactionType
    ) -> float:
        key = (query, txn.name, query.target in marking)
        cost = self._costs.get(key)
        if cost is None:
            cost = self.exact.query_cost(query, marking & {query.target}, txn)
            self._costs[key] = cost
        return cost

    def update_cost(self, group_id: int, txn: TransactionType) -> float:
        return self.exact.update_cost(group_id, txn)

    def total_query_cost(
        self,
        queries: Iterable[MaintenanceQuery],
        marking: frozenset[int],
        txn: TransactionType,
    ) -> float:
        return sum(self.query_cost(q, marking, txn) for q in queries)


def approximate_view_set(
    dag: ViewDag,
    txns: Sequence[TransactionType],
    cost_model: CostModel,
    estimator: DagEstimator,
    candidates: Sequence[int] | None = None,
    max_candidates: int = 16,
) -> OptimizationResult:
    """Section 5's *approximate costing*: associate a single cost with each
    query — its exact cost with at most its own target materialized — and
    run the exhaustive search under that cost model."""
    return optimal_view_set(
        dag,
        txns,
        _TargetOnlyCostModel(cost_model),
        estimator,
        candidates=candidates,
        max_candidates=max_candidates,
    )


def greedy_view_set(
    dag: ViewDag,
    txns: Sequence[TransactionType],
    cost_model: CostModel,
    estimator: DagEstimator,
    candidates: Sequence[int] | None = None,
    track_limit: int | None = None,
    cache: SearchCache | None = None,
    budget: float | None = None,
) -> OptimizationResult:
    """Section 5 heuristic 3: greedy hill-climbing with one cost per step.

    Evaluates O(k²) view sets instead of 2^k: starting from the roots,
    repeatedly add the candidate whose addition lowers the weighted cost
    the most. Under a space ``budget`` (pages of auxiliary views, see
    :mod:`repro.core.space`) only candidates that still fit are tried and
    the pick is by cost reduction per page — the knapsack-style rule.
    """
    memo = dag.memo
    roots = frozenset(memo.find(r) for r in dag.roots.values())
    if candidates is None:
        candidates = dag.candidate_groups()
    candidates = sorted({memo.find(c) for c in candidates})
    if cache is None:
        cache = SearchCache(memo, cost_model, estimator)
    cache.precompute(candidates, txns)
    remaining = set(candidates) - roots
    current = evaluate_view_set(
        memo, roots, txns, cost_model, estimator, track_limit, cache=cache
    )
    evaluated = [current]
    spent = 0.0
    while remaining:
        # (score, candidate, evaluation, pages) of the best addition so far.
        pick: tuple[float, int, ViewSetEvaluation, float] | None = None
        for candidate in sorted(remaining):
            pages = 0.0
            if budget is not None:
                pages = view_space_pages(memo, candidate, estimator, cost_model)
                if spent + pages > budget:
                    continue
            trial = evaluate_view_set(
                memo,
                current.marking | {candidate},
                txns,
                cost_model,
                estimator,
                track_limit,
                cache=cache,
            )
            evaluated.append(trial)
            gain = current.weighted_cost - trial.weighted_cost
            if gain <= 1e-9:
                continue
            score = gain if budget is None else gain / max(pages, 1.0)
            if pick is None or score > pick[0]:
                pick = (score, candidate, trial, pages)
        if pick is None:
            break
        _, candidate, current, pages = pick
        spent += pages
        remaining.discard(candidate)
    return OptimizationResult(
        best=current,
        evaluated=evaluated,
        root=min(roots),
        candidates=tuple(candidates),
        view_sets_considered=len(evaluated),
        stats=cache.stats,
    )
