"""Human-readable reports for optimization results.

Turns an :class:`~repro.core.plan.OptimizationResult` into the kind of
advisor output a DBA would read: which views to materialize (with schemas
and index recommendations), per-transaction maintenance plans (the chosen
update track and the queries it poses), and the cost table over the view
sets that were considered.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.memoize import SearchCache
from repro.core.plan import OptimizationResult
from repro.core.tracks import track_ops
from repro.cost.estimates import DagEstimator
from repro.cost.page_io import PageIOCostModel
from repro.dag.builder import ViewDag
from repro.workload.transactions import TransactionType


def describe_marking(dag: ViewDag, marking: frozenset[int]) -> list[tuple[int, str]]:
    """(group id, rendered line) per marked node, sorted by id.

    Structured so callers (``render_report``, the observability layer's
    ``explain``) never have to re-parse rendered text to recover ids."""
    memo = dag.memo
    roots = {memo.find(r) for r in dag.roots.values()}
    lines = []
    for gid in sorted(marking):
        group = memo.group(gid)
        role = "the view itself" if gid in roots else "auxiliary"
        lines.append((gid, f"N{gid} ({role}): {group.schema}"))
    return lines


def recommend_base_indexes(
    dag: ViewDag,
    result: OptimizationResult,
    txns: Sequence[TransactionType],
    cost_model: PageIOCostModel,
    estimator: DagEstimator,
) -> dict[str, set[tuple[str, ...]]]:
    """Base-relation hash indexes the chosen plans probe.

    The cost model assumes these exist (the paper: "all indices are hash
    indices"); listing them makes the assumption actionable. Derived by
    walking the chosen tracks' queries, as the optimizer derived them under
    ``cost_model``'s switches, down to leaf targets.
    """
    memo = dag.memo
    cache = SearchCache(memo, cost_model, estimator)
    marking = result.best_marking
    needed: dict[str, set[tuple[str, ...]]] = {}
    for txn in txns:
        plan = result.best.per_txn.get(txn.name)
        if plan is None:
            continue
        for op in track_ops(plan.track):
            for query in cache.queries(op, txn, memo.find(op.group_id) in marking):
                target = memo.group(query.target)
                if not target.is_leaf or not query.key_columns:
                    continue
                needed.setdefault(target.base_relation, set()).add(
                    tuple(sorted(query.key_columns))
                )
    return needed


def render_report(
    dag: ViewDag,
    result: OptimizationResult,
    txns: Sequence[TransactionType],
    cost_model: PageIOCostModel,
    estimator: DagEstimator,
    top: int = 5,
) -> str:
    """A full advisor report for the chosen view set."""
    memo = dag.memo
    lines: list[str] = []
    lines.append("=== Materialization advisor report ===")
    lines.append("")
    lines.append(
        f"View sets considered: {result.view_sets_considered}"
        + (
            f" (pruned by shielding: {result.view_sets_pruned})"
            if result.view_sets_pruned
            else ""
        )
    )
    if result.tracks_truncated:
        lines.append(
            "WARNING: track enumeration hit track_limit; some update tracks "
            "were never costed and the chosen plans may be suboptimal."
        )
    lines.append(f"Chosen view set (weighted {result.best.weighted_cost:.2f} I/Os/txn):")
    for gid, line in describe_marking(dag, result.best_marking):
        lines.append("  " + line)
        if not memo.group(gid).is_leaf:
            index = sorted(cost_model.index_columns(gid))
            if index:
                lines.append(f"      recommended hash index on ({', '.join(index)})")
    base_indexes = recommend_base_indexes(dag, result, txns, cost_model, estimator)
    if base_indexes:
        lines.append("")
        lines.append("Base-relation indexes the plans rely on:")
        for relation, columns in sorted(base_indexes.items()):
            for cols in sorted(columns):
                lines.append(f"  {relation}: hash index on ({', '.join(cols)})")
    lines.append("")
    lines.append("Per-transaction maintenance plans:")
    cache = SearchCache(memo, cost_model, estimator)
    marking = result.best_marking
    for txn in txns:
        plan = result.best.per_txn.get(txn.name)
        if plan is None:
            continue
        lines.append(
            f"  {txn.name} (weight {txn.weight:g}): query {plan.query_cost:.2f} "
            f"+ update {plan.update_cost:.2f} = {plan.total:.2f} I/Os"
        )
        if not plan.track:
            lines.append("      no affected materialized views")
            continue
        for op in track_ops(plan.track):
            lines.append(
                f"      N{memo.find(op.group_id)} ← {op.label()}"
            )
            for query in cache.queries(op, txn, memo.find(op.group_id) in marking):
                cost = cost_model.query_cost(query, marking, txn)
                lines.append(f"          {query.describe(memo)} — {cost:.2f} I/Os")
    lines.append("")
    lines.append(f"Best {top} view sets:")
    ranked = sorted(result.evaluated, key=lambda e: e.weighted_cost)[:top]
    for ev in ranked:
        lines.append("  " + ev.describe(memo, root=result.root))
    if result.stats is not None:
        lines.append("")
        lines.append("Optimizer statistics:")
        for line in result.stats.lines():
            lines.append("  " + line)
    return "\n".join(lines)
