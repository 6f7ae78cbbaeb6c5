"""Space-budgeted view-set selection — quantifying the paper's trade.

The paper's title is the trade-off; its algorithms optimize time assuming
space is free ("Obviously there is also a time cost for maintaining these
additional views", §1 — space cost is acknowledged but not budgeted). This
module makes the trade explicit: every materialized view occupies pages
(one page per tuple plus its index pages, matching the storage model).

A budget is a parameter of the two view-set searches, not a search of its
own: ``optimal_view_set(..., budget=)`` prunes view sets that do not fit
before costing them, and ``greedy_view_set(..., budget=)`` climbs by
benefit per page, the classic knapsack-style heuristic.
:func:`space_time_curve` sweeps budgets and reports the achievable
maintenance cost at each — the space-for-time curve itself.
"""

from __future__ import annotations

from typing import Sequence

from repro.cost.estimates import DagEstimator
from repro.cost.model import CostModel
from repro.cost.page_io import PageIOCostModel
from repro.dag.builder import ViewDag
from repro.workload.transactions import TransactionType


def view_space_pages(
    memo, gid: int, estimator: DagEstimator, cost_model: CostModel
) -> float:
    """Estimated pages a materialized node occupies: one page per tuple
    (unclustered, as in the paper's storage model) plus its hash-index
    pages (one per distinct key of the index columns)."""
    gid = memo.find(gid)
    info = estimator.info(gid)
    pages = info.rows
    if isinstance(cost_model, PageIOCostModel):
        index_cols = cost_model.index_columns(gid)
        if index_cols:
            pages += info.distinct_of(sorted(index_cols))
    return pages


def marking_space(
    dag: ViewDag,
    marking: frozenset[int],
    estimator: DagEstimator,
    cost_model: CostModel,
) -> float:
    """Additional space of a view set: the auxiliary views only (the root
    view is materialized regardless; base relations are already stored)."""
    memo = dag.memo
    roots = {memo.find(r) for r in dag.roots.values()}
    total = 0.0
    for gid in marking:
        if gid in roots or memo.group(gid).is_leaf:
            continue
        total += view_space_pages(memo, gid, estimator, cost_model)
    return total


def space_time_curve(
    dag: ViewDag,
    txns: Sequence[TransactionType],
    cost_model: CostModel,
    estimator: DagEstimator,
    budgets: Sequence[float],
    exhaustive: bool = True,
    **kwargs,
) -> list[dict[str, float]]:
    """The space-for-time curve: for each budget, the best achievable
    weighted maintenance cost and the space actually used."""
    from repro.core.heuristics import greedy_view_set
    from repro.core.optimizer import optimal_view_set

    search = optimal_view_set if exhaustive else greedy_view_set
    curve = []
    for budget in budgets:
        result = search(dag, txns, cost_model, estimator, budget=budget, **kwargs)
        used = marking_space(dag, result.best_marking, estimator, cost_model)
        curve.append(
            {
                "budget": float(budget),
                "cost": result.best.weighted_cost,
                "space_used": used,
                "views": float(
                    len(result.best_marking)
                    - len({dag.memo.find(r) for r in dag.roots.values()})
                ),
            }
        )
    return curve
