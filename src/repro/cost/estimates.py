"""Statistics and delta-size estimation over the expression DAG.

The paper assumes (§2.2) that "the sizes of the Δs on the inputs are
available" and that "given statistics about the inputs to an operation, we
can then compute the size of the update to the result of the operation".
This module implements those formulae:

* :class:`NodeInfo` — per-equivalence-node table statistics plus functional
  dependencies (rows, distinct counts, FD-reduced key sets);
* :class:`DeltaStats` — per-(node, transaction-type) estimated delta sizes,
  the columns a modification may change, and the *delta-completeness* sets
  that license the paper's key-based query elimination (Q3d);
* :class:`DagEstimator` — memoized derivation of both, bottom-up over the
  DAG.

Estimates are heuristic in the usual optimizer sense; the exact numbers the
paper's Section 3.6 uses (uniform 10 employees/department etc.) come out
exactly because the underlying distributions are uniform.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

from repro.algebra.operators import (
    Difference,
    GroupAggregate,
    Join,
    Project,
    RelExpr,
    Scan,
    Select,
    Union,
)
from repro.algebra.predicates import And, Compare, Not, Or, Predicate, TruePred
from repro.algebra.scalar import Col, Const
from repro.cost.fds import FDSet
from repro.dag.memo import Memo
from repro.dag.nodes import OperationNode
from repro.storage.statistics import Catalog, TableStats
from repro.workload.transactions import TransactionType

DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_NEQ_SELECTIVITY = 0.9


class EstimationError(Exception):
    """Raised when the estimator cannot derive statistics for a node."""


# -- node statistics ------------------------------------------------------------------


@dataclass(frozen=True)
class NodeInfo:
    """Table statistics plus FDs for one equivalence node."""

    stats: TableStats
    fds: FDSet

    @property
    def rows(self) -> float:
        return self.stats.rows

    def reduce(self, columns: Iterable[str]) -> frozenset[str]:
        return self.fds.reduce(columns)

    def distinct_of(self, columns: Iterable[str]) -> float:
        """FD-aware distinct count of a column combination."""
        return self.stats.distinct_of(sorted(self.reduce(columns)))

    def fanout(self, columns: Iterable[str]) -> float:
        if self.rows <= 0:
            return 0.0
        return self.rows / self.distinct_of(columns)


# -- selectivity ----------------------------------------------------------------------


def estimate_selectivity(predicate: Predicate, info: NodeInfo) -> float:
    """Classic System-R style selectivity guesses."""
    if isinstance(predicate, TruePred):
        return 1.0
    if isinstance(predicate, And):
        result = 1.0
        for part in predicate.parts:
            result *= estimate_selectivity(part, info)
        return result
    if isinstance(predicate, Or):
        left = estimate_selectivity(predicate.left, info)
        right = estimate_selectivity(predicate.right, info)
        return min(1.0, left + right - left * right)
    if isinstance(predicate, Not):
        return max(0.0, 1.0 - estimate_selectivity(predicate.inner, info))
    if isinstance(predicate, Compare):
        return _compare_selectivity(predicate, info)
    return DEFAULT_RANGE_SELECTIVITY


def _compare_selectivity(cmp: Compare, info: NodeInfo) -> float:
    left_col = cmp.left if isinstance(cmp.left, Col) else None
    right_col = cmp.right if isinstance(cmp.right, Col) else None
    # A histogram (numeric base columns) beats every constant below.
    histogram_estimate = _histogram_selectivity(cmp, info)
    if histogram_estimate is not None:
        return histogram_estimate
    if cmp.op == "=":
        if left_col and isinstance(cmp.right, Const):
            return 1.0 / max(info.stats.distinct_of([left_col.name]), 1.0)
        if right_col and isinstance(cmp.left, Const):
            return 1.0 / max(info.stats.distinct_of([right_col.name]), 1.0)
        if left_col and right_col:
            d = max(
                info.stats.distinct_of([left_col.name]),
                info.stats.distinct_of([right_col.name]),
                1.0,
            )
            return 1.0 / d
        return DEFAULT_RANGE_SELECTIVITY
    if cmp.op == "!=":
        return DEFAULT_NEQ_SELECTIVITY
    return DEFAULT_RANGE_SELECTIVITY


def _histogram_selectivity(cmp: Compare, info: NodeInfo) -> float | None:
    """Histogram-based estimate for ``col <op> const`` (either orientation);
    None when no histogram applies."""
    flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
    if isinstance(cmp.left, Col) and isinstance(cmp.right, Const):
        column, value, op = cmp.left.name, cmp.right.value, cmp.op
    elif isinstance(cmp.right, Col) and isinstance(cmp.left, Const):
        column, value, op = cmp.right.name, cmp.left.value, flipped[cmp.op]
    else:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return None
    histogram = info.stats.histogram_for(column)
    if histogram is None:
        return None
    return histogram.selectivity(op, float(value))


# -- delta statistics ------------------------------------------------------------------


@dataclass(frozen=True)
class DeltaStats:
    """Estimated delta at a node for one transaction type."""

    modifies: float = 0.0
    inserts: float = 0.0
    deletes: float = 0.0
    distinct: Mapping[str, float] = field(default_factory=dict)
    modified_columns: frozenset[str] = field(default_factory=frozenset)
    complete_on: frozenset[frozenset[str]] = field(default_factory=frozenset)

    @property
    def rows(self) -> float:
        """Changed tuples (a modification counts once)."""
        return self.modifies + self.inserts + self.deletes

    @property
    def has_deletes(self) -> bool:
        return self.deletes > 0

    @property
    def is_empty(self) -> bool:
        return self.rows <= 0

    def distinct_of(self, columns: Iterable[str]) -> float:
        cols = list(columns)
        if not cols:
            return 1.0
        product = 1.0
        for col in cols:
            product *= self.distinct.get(col, self.rows)
            if product >= self.rows:
                return max(self.rows, 1.0)
        return max(min(product, self.rows), 1.0)

    def is_complete_on(self, columns: Iterable[str]) -> bool:
        """Whether the delta is complete w.r.t. some subset of ``columns``
        (completeness is closed under supersets)."""
        columns = frozenset(columns)
        return any(s <= columns for s in self.complete_on)

    def scale(self, factor: float) -> "DeltaStats":
        if factor >= 1.0:
            return self
        rows = self.rows * factor
        return replace(
            self,
            modifies=self.modifies * factor,
            inserts=self.inserts * factor,
            deletes=self.deletes * factor,
            distinct={c: min(d, max(rows, 1.0)) for c, d in self.distinct.items()},
        )


def _merge_complete(sets: Iterable[frozenset[str]]) -> frozenset[frozenset[str]]:
    """Keep the antichain of minimal sets."""
    sets = list(sets)
    minimal = []
    for s in sets:
        if any(other < s for other in sets):
            continue
        if s not in minimal:
            minimal.append(s)
    return frozenset(minimal)


# -- the estimator ----------------------------------------------------------------------


class DagEstimator:
    """Memoized per-node statistics and per-(node, txn) delta statistics.

    ``use_fds`` and ``use_completeness`` are ablation switches: with FDs off
    the estimator forgets key-derived dependencies (no key-set reduction, no
    single-index arithmetic); with completeness off the paper's key-based
    query elimination (Q3d) never fires. Both default on.
    """

    def __init__(
        self,
        memo: Memo,
        catalog: Catalog,
        use_fds: bool = True,
        use_completeness: bool = True,
    ) -> None:
        self._memo = memo
        self._catalog = catalog
        self.use_fds = use_fds
        self.use_completeness = use_completeness
        self._infos: dict[int, NodeInfo] = {}
        # Keyed by the txn's delta_signature, NOT its name: ad-hoc names
        # ("__shell", "__batch_n", …) recur with different specs, and a
        # name-keyed memo would return stale stats for them.
        self._deltas: dict[tuple[int, tuple], DeltaStats | None] = {}
        self._base_rels: dict[int, frozenset[str]] = {}

    # -- reachability --------------------------------------------------------------

    def base_relations(self, gid: int) -> frozenset[str]:
        gid = self._memo.find(gid)
        if gid in self._base_rels:
            return self._base_rels[gid]
        group = self._memo.group(gid)
        if group.is_leaf:
            result = frozenset({group.base_relation})
        else:
            result = frozenset()
            # All ops of a group compute the same relation, but may read
            # different base relations; the union is what can affect it.
            self._base_rels[gid] = frozenset()  # cycle guard
            for op in group.ops:
                for cid in op.child_ids:
                    result |= self.base_relations(cid)
        self._base_rels[gid] = result
        return result

    def affected(self, gid: int, txn: TransactionType) -> bool:
        """Paper §2.2: affected nodes have an updated relation as descendant."""
        return bool(self.base_relations(gid) & txn.updated_relations)

    def op_affected(self, op: OperationNode, txn: TransactionType) -> bool:
        return any(self.affected(cid, txn) for cid in op.child_ids) or (
            op.is_leaf_scan and self.affected(op.group_id, txn)
        )

    # -- node statistics -------------------------------------------------------------

    def info(self, gid: int) -> NodeInfo:
        gid = self._memo.find(gid)
        if gid in self._infos:
            return self._infos[gid]
        group = self._memo.group(gid)
        if group.is_leaf:
            stats = self._catalog.get(group.base_relation)
            fds = FDSet.from_keys(group.schema.keys, group.schema.names)
            info = NodeInfo(stats, fds)
        else:
            if not group.ops:
                raise EstimationError(f"group {gid} has no operations")
            info = self._info_via_op(group.ops[0])
            info = self._project_info(info, group.schema.names)
        if not self.use_fds:
            info = NodeInfo(info.stats, FDSet())
        self._infos[gid] = info
        return info

    def _project_info(self, info: NodeInfo, names: tuple[str, ...]) -> NodeInfo:
        """Restrict an op-level estimate onto the group schema (implicit
        projection)."""
        wanted = set(names)
        distinct = {c: d for c, d in info.stats.distinct.items() if c in wanted}
        return NodeInfo(TableStats(info.stats.rows, distinct), info.fds.restrict(wanted))

    def _info_via_op(self, op: OperationNode) -> NodeInfo:
        template = op.template
        children = [self.info(cid) for cid in op.child_ids]
        if isinstance(template, Scan):
            stats = self._catalog.get(template.name)
            return NodeInfo(stats, FDSet.from_keys(template.schema.keys, template.schema.names))
        if isinstance(template, Select):
            (child,) = children
            selectivity = estimate_selectivity(template.predicate, child)
            return NodeInfo(child.stats.scaled(selectivity), child.fds)
        if isinstance(template, Project):
            return self._info_project(template, children[0])
        if isinstance(template, Join):
            return self._info_join(template, children[0], children[1])
        if isinstance(template, GroupAggregate):
            return self._info_aggregate(template, children[0])
        if isinstance(template, Union):
            rows = children[0].rows + children[1].rows
            distinct = {
                c: min(
                    children[0].stats.distinct.get(c, children[0].rows)
                    + children[1].stats.distinct.get(c, children[1].rows),
                    rows,
                )
                for c in template.schema.names
            }
            return NodeInfo(TableStats(rows, distinct), FDSet())
        if isinstance(template, Difference):
            return children[0]
        raise EstimationError(f"cannot estimate over {type(template).__name__}")

    @staticmethod
    def _info_project(template: Project, child: NodeInfo) -> NodeInfo:
        mapping: dict[str, str] = {}
        distinct: dict[str, float] = {}
        for out, expr in template.outputs:
            if isinstance(expr, Col):
                mapping[expr.name] = out
                distinct[out] = child.stats.distinct.get(expr.name, child.rows)
            else:
                distinct[out] = child.rows
        fds = child.fds.restrict(mapping).rename(mapping)
        rows = child.rows
        if template.dedup:
            stats = TableStats(rows, distinct)
            rows = stats.distinct_of([o for o, _ in template.outputs])
            distinct = {c: min(d, rows) for c, d in distinct.items()}
        return NodeInfo(TableStats(rows, distinct), fds)

    @staticmethod
    def _info_join(template: Join, left: NodeInfo, right: NodeInfo) -> NodeInfo:
        jc = list(template.join_columns)
        if jc:
            denom = max(left.distinct_of(jc), right.distinct_of(jc), 1.0)
            rows = left.rows * right.rows / denom
        else:
            rows = left.rows * right.rows
        distinct: dict[str, float] = {}
        for name in template.schema.names:
            sources = []
            if name in left.stats.distinct:
                sources.append(left.stats.distinct[name])
            if name in right.stats.distinct:
                sources.append(right.stats.distinct[name])
            base = min(sources) if sources else rows
            distinct[name] = min(base, rows)
        fds = left.fds.union(right.fds)
        # If the join columns contain a key of one side, they functionally
        # determine that entire side in the join output (e.g. DName → Budget
        # inside Emp ⋈ Dept, which the paper's index reasoning relies on).
        if jc and template.right.schema.has_key(jc):
            fds = fds.union(FDSet.of((jc, template.right.schema.names)))
        if jc and template.left.schema.has_key(jc):
            fds = fds.union(FDSet.of((jc, template.left.schema.names)))
        keys_fds = FDSet.from_keys(template.schema.keys, template.schema.names)
        fds = fds.union(keys_fds)
        if template.residual.conjuncts():
            rows *= DEFAULT_RANGE_SELECTIVITY
            distinct = {c: min(d, rows) for c, d in distinct.items()}
        return NodeInfo(TableStats(rows, distinct), fds)

    def _info_aggregate(self, template: GroupAggregate, child: NodeInfo) -> NodeInfo:
        group = list(template.group_by)
        rows = child.distinct_of(group) if group else 1.0
        distinct: dict[str, float] = {}
        for g in group:
            distinct[g] = min(child.stats.distinct.get(g, rows), rows)
        for agg in template.aggregates:
            distinct[agg.out] = rows
        fds = child.fds.restrict(group).union(
            FDSet.of((group, template.schema.names))
        )
        return NodeInfo(TableStats(rows, distinct), fds)

    # -- delta statistics -------------------------------------------------------------

    def delta(self, gid: int, txn: TransactionType) -> DeltaStats | None:
        """Estimated delta at a node (None when the node is unaffected).

        Delta contents are semantically path-independent (all ops of a group
        compute the same relation), so sizes are derived via the first
        affected op; completeness sets are unioned over all affected ops,
        since a proof along any op is a proof about the semantic delta.
        """
        gid = self._memo.find(gid)
        key = (gid, txn.delta_signature)
        if key in self._deltas:
            return self._deltas[key]
        group = self._memo.group(gid)
        if not self.affected(gid, txn):
            self._deltas[key] = None
            return None
        if group.is_leaf:
            result = self._base_delta(group.base_relation, txn)
        else:
            result = None
            complete: list[frozenset[str]] = []
            for op in group.ops:
                if not self.op_affected(op, txn):
                    continue
                stats = self._delta_via_op(op, txn)
                if stats is None:
                    continue
                if result is None:
                    result = stats
                complete.extend(stats.complete_on)
            if result is not None:
                result = replace(result, complete_on=_merge_complete(complete))
        if result is not None and not self.use_completeness:
            result = replace(result, complete_on=frozenset())
        self._deltas[key] = result
        return result

    def _base_delta(self, relation: str, txn: TransactionType) -> DeltaStats:
        spec = txn.spec(relation)
        base = self._catalog.get(relation)
        total = spec.total
        group = self._memo.group(self._memo.leaf_group_id(relation))
        distinct = {
            c: min(total, base.distinct.get(c, base.rows))
            for c in group.schema.names
        }
        complete = _merge_complete(frozenset(k) for k in group.schema.keys)
        return DeltaStats(
            modifies=spec.modifies,
            inserts=spec.inserts,
            deletes=spec.deletes,
            distinct=distinct,
            modified_columns=spec.modified_columns,
            complete_on=complete,
        )

    def _delta_via_op(self, op: OperationNode, txn: TransactionType) -> DeltaStats | None:
        template = op.template
        child_deltas = [self.delta(cid, txn) for cid in op.child_ids]
        child_infos = [self.info(cid) for cid in op.child_ids]
        result = self._delta_op(template, child_deltas, child_infos, txn)
        if result is None:
            return None
        if op.projection is not None:
            wanted = set(op.projection)
            result = replace(
                result,
                distinct={c: d for c, d in result.distinct.items() if c in wanted},
                modified_columns=result.modified_columns & wanted,
                complete_on=_merge_complete(
                    s for s in result.complete_on if s <= wanted
                ),
            )
        return result

    def _delta_op(
        self,
        template: RelExpr,
        child_deltas: list[DeltaStats | None],
        child_infos: list[NodeInfo],
        txn: TransactionType,
    ) -> DeltaStats | None:
        if isinstance(template, Select):
            (delta,) = child_deltas
            if delta is None:
                return None
            selectivity = estimate_selectivity(template.predicate, child_infos[0])
            return delta.scale(selectivity)
        if isinstance(template, Project):
            return self._delta_project(template, child_deltas[0])
        if isinstance(template, Join):
            return self._delta_join(template, child_deltas, child_infos)
        if isinstance(template, GroupAggregate):
            return self._delta_aggregate(template, child_deltas[0], child_infos[0])
        if isinstance(template, Union):
            parts = [d for d in child_deltas if d is not None]
            if not parts:
                return None
            rows = sum(p.rows for p in parts)
            distinct: dict[str, float] = {}
            for p in parts:
                for c, d in p.distinct.items():
                    distinct[c] = min(distinct.get(c, 0.0) + d, rows)
            return DeltaStats(
                modifies=sum(p.modifies for p in parts),
                inserts=sum(p.inserts for p in parts),
                deletes=sum(p.deletes for p in parts),
                distinct=distinct,
                modified_columns=frozenset().union(*(p.modified_columns for p in parts)),
                complete_on=frozenset(),
            )
        if isinstance(template, Difference):
            parts = [d for d in child_deltas if d is not None]
            if not parts:
                return None
            # Conservative: the output can change wherever either side did.
            rows = sum(p.rows for p in parts)
            distinct: dict[str, float] = {}
            for p in parts:
                for c, d in p.distinct.items():
                    distinct[c] = min(distinct.get(c, 0.0) + d, rows)
            return DeltaStats(
                modifies=0.0,
                inserts=sum(p.inserts + p.modifies for p in parts),
                deletes=sum(p.deletes + p.modifies for p in parts),
                distinct=distinct,
                modified_columns=frozenset().union(*(p.modified_columns for p in parts)),
                complete_on=frozenset(),
            )
        raise EstimationError(f"cannot propagate delta through {type(template).__name__}")

    @staticmethod
    def _delta_project(template: Project, delta: DeltaStats | None) -> DeltaStats | None:
        if delta is None:
            return None
        distinct: dict[str, float] = {}
        modified: set[str] = set()
        complete_map: dict[str, str] = {}
        for out, expr in template.outputs:
            if isinstance(expr, Col):
                distinct[out] = delta.distinct.get(expr.name, delta.rows)
                if expr.name in delta.modified_columns:
                    modified.add(out)
                complete_map[expr.name] = out
            else:
                distinct[out] = delta.rows
                if expr.columns() & delta.modified_columns:
                    modified.add(out)
        complete = _merge_complete(
            frozenset(complete_map[a] for a in s)
            for s in delta.complete_on
            if s <= set(complete_map)
        )
        if template.dedup:
            complete = frozenset()
        return replace(
            delta,
            distinct=distinct,
            modified_columns=frozenset(modified),
            complete_on=complete,
        )

    def _delta_join(
        self,
        template: Join,
        child_deltas: list[DeltaStats | None],
        child_infos: list[NodeInfo],
    ) -> DeltaStats | None:
        left_delta, right_delta = child_deltas
        left_info, right_info = child_infos
        if left_delta is None and right_delta is None:
            return None
        jc = list(template.join_columns)

        def one_side(
            delta: DeltaStats, other: NodeInfo, delta_schema_names: Iterable[str]
        ) -> DeltaStats:
            fanout = other.fanout(jc) if jc else other.rows
            key_changing = bool(set(jc) & delta.modified_columns)
            if key_changing:
                modifies = 0.0
                inserts = (delta.inserts + delta.modifies) * fanout
                deletes = (delta.deletes + delta.modifies) * fanout
            else:
                modifies = delta.modifies * fanout
                inserts = delta.inserts * fanout
                deletes = delta.deletes * fanout
            rows = modifies + inserts + deletes
            delta_side = set(delta_schema_names)
            distinct: dict[str, float] = {}
            jc_keys = delta.distinct_of(jc) if jc else 1.0
            for name in template.schema.names:
                if name in delta_side:
                    distinct[name] = min(delta.distinct.get(name, rows), max(rows, 1.0))
                else:
                    per_key = max(
                        other.distinct_of(set(jc) | {name}) / max(other.distinct_of(jc), 1.0),
                        1.0,
                    )
                    distinct[name] = min(jc_keys * per_key, max(rows, 1.0))
            complete = _merge_complete(delta.complete_on)
            return DeltaStats(
                modifies=modifies,
                inserts=inserts,
                deletes=deletes,
                distinct=distinct,
                modified_columns=delta.modified_columns,
                complete_on=complete,
            )

        if left_delta is not None and right_delta is None:
            return one_side(left_delta, right_info, template.left.schema.names)
        if right_delta is not None and left_delta is None:
            return one_side(right_delta, left_info, template.right.schema.names)

        # Both sides updated: add the contributions, drop completeness.
        assert left_delta is not None and right_delta is not None
        from_left = one_side(left_delta, right_info, template.left.schema.names)
        from_right = one_side(right_delta, left_info, template.right.schema.names)
        rows = from_left.rows + from_right.rows
        distinct = {
            c: min(
                from_left.distinct.get(c, 0.0) + from_right.distinct.get(c, 0.0),
                max(rows, 1.0),
            )
            for c in template.schema.names
        }
        return DeltaStats(
            modifies=from_left.modifies + from_right.modifies,
            inserts=from_left.inserts + from_right.inserts,
            deletes=from_left.deletes + from_right.deletes,
            distinct=distinct,
            modified_columns=from_left.modified_columns | from_right.modified_columns,
            complete_on=frozenset(),
        )

    def _delta_aggregate(
        self,
        template: GroupAggregate,
        delta: DeltaStats | None,
        child_info: NodeInfo,
    ) -> DeltaStats | None:
        if delta is None:
            return None
        group = list(template.group_by)
        groups_touched = delta.distinct_of(group) if group else 1.0
        distinct: dict[str, float] = {}
        for g in group:
            distinct[g] = min(delta.distinct.get(g, groups_touched), groups_touched)
        for agg in template.aggregates:
            distinct[agg.out] = groups_touched
        modified = set(delta.modified_columns) & set(group)
        modified |= {a.out for a in template.aggregates}
        # Whole groups change at once, so the output delta is complete on
        # the grouping columns.
        complete = _merge_complete(
            [frozenset(group)]
            + [s for s in delta.complete_on if s <= set(group)]
        )
        pure_insert = delta.modifies == 0 and delta.deletes == 0
        pure_delete = delta.modifies == 0 and delta.inserts == 0
        if pure_insert and child_info.rows <= 0:
            return DeltaStats(
                inserts=groups_touched,
                distinct=distinct,
                modified_columns=frozenset(modified),
                complete_on=complete,
            )
        if pure_delete and child_info.rows <= delta.rows:
            return DeltaStats(
                deletes=groups_touched,
                distinct=distinct,
                modified_columns=frozenset(modified),
                complete_on=complete,
            )
        return DeltaStats(
            modifies=groups_touched,
            distinct=distinct,
            modified_columns=frozenset(modified),
            complete_on=complete,
        )
