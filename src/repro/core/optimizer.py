"""Algorithm OptimalViewSet (paper Figure 4): exhaustive, memoized search.

Given the expression DAG ``D_V`` of a view V, transaction types with
weights, and a (monotonic) cost model:

1. precompute the update cost ``M[N, j]`` of every equivalence node N for
   every transaction type T_j (marking-independent) — done once per search
   in a shared :class:`~repro.core.memoize.SearchCache`, exactly as the
   paper's step 1 prescribes;
2. for every candidate view set V (every subset of the non-leaf equivalence
   nodes that contains V), and every transaction type, find the update
   track with minimum accumulated query cost (multi-query-optimized), and
   add the members' update costs;
3. pick the view set minimizing the weighted average cost, breaking ties
   deterministically toward the smaller (then lexicographically smaller)
   marking — equal-cost solutions prefer less space.

Two optional filters reject a marking before it is costed (both count in
``view_sets_pruned``):

* *shielding* applies Theorem 4.1: any view set marking an articulation
  node A whose restriction below A differs from the locally optimal set
  Opt(A) cannot be globally optimal (see :mod:`repro.core.articulation`);
* a space *budget* rejects view sets whose auxiliary views occupy more
  pages than allowed (see :mod:`repro.core.space`).

This loop and the hill-climb in :func:`repro.core.heuristics.greedy_view_set`
are the only two view-set searches; the Section-5 heuristics restrict their
candidates or swap their cost model.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Iterable, Sequence

from repro.cost.estimates import DagEstimator
from repro.cost.model import CostModel
from repro.core.memoize import SearchCache
from repro.core.plan import OptimizationResult, TxnPlan, ViewSetEvaluation
from repro.core.space import marking_space, view_space_pages
from repro.core.tracks import track_ops
from repro.dag.builder import ViewDag
from repro.dag.memo import Memo
from repro.dag.queries import MaintenanceQuery
from repro.workload.transactions import TransactionType

DEFAULT_MAX_CANDIDATES = 16


class SearchSpaceError(Exception):
    """Raised when an exhaustive search would be infeasibly large."""


def evaluate_view_set(
    memo: Memo,
    marking: frozenset[int],
    txns: Sequence[TransactionType],
    cost_model: CostModel,
    estimator: DagEstimator,
    track_limit: int | None = None,
    cache: SearchCache | None = None,
) -> ViewSetEvaluation:
    """Cost a single view set: cheapest update track per transaction type
    plus the members' update costs, weighted across types.

    ``cache`` shares per-layer memoization across many view sets (see
    :mod:`repro.core.memoize`); without one, a transient cache is used and
    the evaluation is self-contained.
    """
    if cache is None:
        cache = SearchCache(memo, cost_model, estimator)
    marking = frozenset(memo.find(g) for g in marking)
    evaluation = ViewSetEvaluation(marking)
    total_weight = sum(t.weight for t in txns)
    weighted = 0.0
    for txn in txns:
        affected_marked = cache.affected_targets(marking, txn)
        update_cost = sum(cache.update_cost(g, txn) for g in affected_marked)
        tracks, truncated = cache.tracks(
            frozenset(affected_marked), txn, track_limit
        )
        best_query = math.inf
        best_track = {}
        for track in tracks:
            queries: list[MaintenanceQuery] = []
            for op in track_ops(track):
                queries.extend(
                    cache.queries(op, txn, memo.find(op.group_id) in marking)
                )
            cost = cache.total_query_cost(queries, marking, txn)
            if cost < best_query:
                best_query = cost
                best_track = track
        if not affected_marked:
            best_query = 0.0
        plan = TxnPlan(
            txn.name,
            best_query,
            update_cost,
            dict(best_track),
            tracks_truncated=truncated,
        )
        evaluation.per_txn[txn.name] = plan
        weighted += plan.total * txn.weight
    evaluation.weighted_cost = weighted / total_weight if total_weight else 0.0
    cache.stats.view_sets_costed += 1
    return evaluation


def _candidate_subsets(
    candidates: Sequence[int], required: frozenset[int]
) -> Iterable[frozenset[int]]:
    optional = [c for c in candidates if c not in required]
    for r in range(len(optional) + 1):
        for combo in itertools.combinations(optional, r):
            yield required | frozenset(combo)


def _evaluation_key(evaluation: ViewSetEvaluation) -> tuple:
    """Deterministic total order on evaluations: cheapest first; among
    equal costs prefer the smaller view set (the space-for-time trade the
    paper optimizes), then the lexicographically smallest marking."""
    return (
        evaluation.weighted_cost,
        len(evaluation.marking),
        tuple(sorted(evaluation.marking)),
    )


def optimal_view_set(
    dag: ViewDag,
    txns: Sequence[TransactionType],
    cost_model: CostModel,
    estimator: DagEstimator,
    candidates: Sequence[int] | None = None,
    required: Iterable[int] | None = None,
    shielding: bool = False,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    track_limit: int | None = None,
    cache: SearchCache | None = None,
    use_cache: bool = True,
    budget: float | None = None,
) -> OptimizationResult:
    """Exhaustive Algorithm OptimalViewSet over the DAG's view sets.

    ``required`` defaults to the DAG's root(s) — the paper always
    materializes the view being maintained. ``candidates`` defaults to all
    non-leaf equivalence nodes. ``budget`` caps the pages of auxiliary
    views (:func:`~repro.core.space.marking_space`): a candidate that alone
    exceeds it is dropped, and a view set over it is pruned uncosted;
    ``ValueError`` if no view set fits. Pass an existing ``cache`` to share
    memoization with an enclosing search; ``use_cache=False`` disables
    cross-view-set memoization entirely (each marking is costed from
    scratch — the seed behaviour, kept for verification and benchmarking).
    """
    memo = dag.memo
    roots = frozenset(memo.find(r) for r in dag.roots.values())
    if required is None:
        required = roots
    required = frozenset(memo.find(g) for g in required)
    if candidates is None:
        candidates = dag.candidate_groups()
    candidates = [memo.find(c) for c in candidates]
    if budget is not None:
        candidates = [
            c
            for c in candidates
            if c in required
            or view_space_pages(memo, c, estimator, cost_model) <= budget
        ]
    optional = [c for c in candidates if c not in required]
    if len(optional) > max_candidates:
        raise SearchSpaceError(
            f"{len(optional)} optional candidates would require "
            f"2^{len(optional)} view sets; restrict candidates or use heuristics"
        )

    if cache is None and use_cache:
        cache = SearchCache(memo, cost_model, estimator)
    if cache is not None:
        started = time.perf_counter()
        cache.precompute(candidates, txns)  # Fig. 4 step 1
        cache.stats.add_phase("precompute", time.perf_counter() - started)

    # node -> (non-leaf descendants, local optimum), both canonical.
    shield: dict[int, tuple[frozenset[int], frozenset[int]]] = {}
    if shielding:
        from repro.core.articulation import articulation_groups, local_optimum

        started = time.perf_counter()
        for node in articulation_groups(memo, roots):
            if node in required:
                continue
            opt = local_optimum(
                dag,
                node,
                txns,
                cost_model,
                estimator,
                track_limit=track_limit,
                cache=cache,
            )
            below = frozenset(
                g
                for g in memo.descendants(node)
                if not memo.group(g).is_leaf
            )
            shield[node] = (below, frozenset(memo.find(g) for g in opt))
        if cache is not None:
            cache.stats.add_phase("shielding", time.perf_counter() - started)

    started = time.perf_counter()
    evaluated: list[ViewSetEvaluation] = []
    best: ViewSetEvaluation | None = None
    best_key: tuple | None = None
    considered = pruned = 0
    for marking in _candidate_subsets(candidates, required):
        considered += 1
        if (shield and _violates_shielding(memo, marking, shield)) or (
            budget is not None
            and marking_space(dag, marking, estimator, cost_model) > budget
        ):
            pruned += 1
            continue
        evaluation = evaluate_view_set(
            memo, marking, txns, cost_model, estimator, track_limit, cache=cache
        )
        evaluated.append(evaluation)
        key = _evaluation_key(evaluation)
        if best_key is None or key < best_key:
            best, best_key = evaluation, key
    if best is None:
        raise ValueError("no feasible view set within the budget")
    if cache is not None:
        cache.stats.add_phase("search", time.perf_counter() - started)
    return OptimizationResult(
        best=best,
        evaluated=evaluated,
        root=min(roots),
        candidates=tuple(candidates),
        view_sets_considered=considered,
        view_sets_pruned=pruned,
        stats=cache.stats if cache is not None else None,
    )


def _violates_shielding(
    memo: Memo,
    marking: frozenset[int],
    shield: dict[int, tuple[frozenset[int], frozenset[int]]],
) -> bool:
    """Theorem 4.1 filter: a marked articulation node's sub-view-set must
    equal its local optimum.

    ``marking`` must be canonical (the search builds it from canonicalized
    candidates); ``shield`` carries canonical descendant sets and local
    optima, so both sides of the comparison live in the same id space even
    after memo merges.
    """
    for node, (below, opt) in shield.items():
        if node not in marking:
            continue
        restricted = frozenset(g for g in marking if g in below)
        if restricted != opt:
            return True
    return False
