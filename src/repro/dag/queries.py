"""Derivation of the maintenance queries posed along an update track.

Paper §3.2: "one can go up the expression DAG, starting from the updated
relations, determining the queries that need to be posed at each
equivalence node ... the query can be identified by the operation node that
generates it, the child on which it is generated, and the transaction
type." This module produces exactly those queries (the Q2Ld/Q2Re/Q3e/Q4e/
Q5Ld/Q5Re of Example 3.2), including the two eliminations the paper uses:

* **self-maintainable aggregates on materialized nodes** — when the
  aggregate's own group is materialized and every aggregate is
  SUM/COUNT/AVG, the old values come from the materialized view itself
  (read-modify-write, charged as update cost), so no input query is posed
  (Q4e disappears under {N3});
* **delta-completeness** — when the incoming delta provably covers whole
  groups (a key of the updated relation inside the grouping columns), the
  old group contents are already in the delta (Q3d costs nothing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.algebra.operators import (
    Difference,
    GroupAggregate,
    Join,
    Project,
    Select,
    Union,
)
from repro.dag.memo import Memo
from repro.ivm.propagate import can_self_maintain
from repro.dag.nodes import OperationNode
from repro.workload.transactions import TransactionType

if TYPE_CHECKING:  # avoid a circular import; used as a type only
    from repro.cost.estimates import DagEstimator


@dataclass(frozen=True)
class MaintenanceQuery:
    """A query posed on an equivalence node while propagating a delta.

    ``target`` is the equivalence node queried (its pre-update state);
    ``key_columns`` is the (FD-reduced) lookup column set; ``n_keys`` the
    expected number of distinct key values probed.
    """

    target: int
    key_columns: frozenset[str]
    n_keys: float
    op_id: int
    side: str  # 'L' / 'R' for joins, 'input' for unary operators
    purpose: str  # 'semijoin' | 'group-fetch' | 'count-fetch'

    def dedup_key(self) -> tuple:
        """Key for multi-query-optimization de-duplication along a track:
        the same node probed with the same key columns for the same
        transaction produces the same result wherever it is posed."""
        return (self.target, self.key_columns, self.purpose)

    def describe(self, memo: Memo) -> str:
        cols = ", ".join(sorted(self.key_columns))
        return (
            f"Q(op E{self.op_id}, {self.side}): fetch N{memo.find(self.target)} "
            f"by ({cols}) ×{self.n_keys:g} [{self.purpose}]"
        )


def derive_queries(
    memo: Memo,
    op: OperationNode,
    txn: TransactionType,
    marking: frozenset[int],
    estimator: "DagEstimator",
    allow_self_maintenance: bool = True,
) -> list[MaintenanceQuery]:
    """The queries op must pose to compute its output delta for ``txn``,
    given the set of materialized equivalence nodes ``marking``.

    ``allow_self_maintenance=False`` is an ablation switch: materialized
    aggregates then recompute their groups like unmaterialized ones."""
    template = op.template
    children = [memo.find(c) for c in op.child_ids]
    deltas = [estimator.delta(c, txn) for c in children]

    if isinstance(template, Select):
        return []

    if isinstance(template, Project):
        (delta,) = deltas
        if not template.dedup or delta is None or delta.is_empty:
            return []
        child_info = estimator.info(children[0])
        cols = child_info.reduce(memo.group(children[0]).schema.names)
        return [
            MaintenanceQuery(
                target=children[0],
                key_columns=cols,
                n_keys=delta.rows,
                op_id=op.id,
                side="input",
                purpose="count-fetch",
            )
        ]

    if isinstance(template, Join):
        queries = []
        jc = frozenset(template.join_columns)
        sides = ("L", "R")
        for i, delta in enumerate(deltas):
            if delta is None or delta.is_empty:
                continue
            other = 1 - i
            other_info = estimator.info(children[other])
            key_cols = other_info.reduce(jc) if jc else frozenset()
            queries.append(
                MaintenanceQuery(
                    target=children[other],
                    key_columns=key_cols,
                    n_keys=delta.distinct_of(sorted(jc)) if jc else 1.0,
                    op_id=op.id,
                    side=sides[other],
                    purpose="semijoin",
                )
            )
        return queries

    if isinstance(template, GroupAggregate):
        (delta,) = deltas
        if delta is None or delta.is_empty:
            return []
        group_cols = set(template.group_by)
        if delta.is_complete_on(group_cols):
            return []  # the paper's Q3d elimination: delta covers whole groups
        materialized = memo.find(op.group_id) in marking
        removals = delta.has_deletes or bool(group_cols & delta.modified_columns)
        if (
            materialized
            and allow_self_maintenance
            and can_self_maintain(template, removals, delta.modified_columns)
        ):
            # Old values come from the materialized view itself by
            # read-modify-write (the paper's N3 accounting) — no input query.
            return []
        child_info = estimator.info(children[0])
        key_cols = child_info.reduce(group_cols)
        return [
            MaintenanceQuery(
                target=children[0],
                key_columns=key_cols,
                n_keys=delta.distinct_of(sorted(key_cols)),
                op_id=op.id,
                side="input",
                purpose="group-fetch",
            )
        ]

    if isinstance(template, Union):
        return []

    if isinstance(template, Difference):
        queries = []
        sides = ("L", "R")
        any_delta = any(d is not None and not d.is_empty for d in deltas)
        if not any_delta:
            return []
        total_rows = sum(d.rows for d in deltas if d is not None)
        for i, child in enumerate(children):
            child_info = estimator.info(child)
            cols = child_info.reduce(memo.group(child).schema.names)
            queries.append(
                MaintenanceQuery(
                    target=child,
                    key_columns=cols,
                    n_keys=total_rows,
                    op_id=op.id,
                    side=sides[i],
                    purpose="count-fetch",
                )
            )
        return queries

    return []
