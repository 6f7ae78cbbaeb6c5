"""The paper's Section 3.6 page-I/O cost model.

Query costs: answering a lookup of ``n`` distinct keys on an equivalence
node costs, per key, one index-page read plus one page per matching tuple
when the node is a base relation or materialized; otherwise the query is
re-expressed over the cheapest operation-node child (a semijoin decomposes
into lookups on the join inputs; a group fetch becomes a lookup on the
aggregate's input restricted to the grouping columns). A full scan is
always available as a fallback, so every query has finite cost.

Update costs (M[N, j]): per the paper's accounting — one index-page read
per distinct key touched (single hash index per materialization, on the
node's FD-reduced access columns), index-page writes only when the indexed
columns change, one page read plus one write per modified tuple, one write
per inserted or deleted tuple.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.algebra.operators import (
    Difference,
    GroupAggregate,
    Join,
    Project,
    Scan,
    Select,
    Union,
)
from repro.algebra.scalar import Col
from repro.cost.estimates import DagEstimator
from repro.cost.model import CostConfig, CostModel
from repro.dag.memo import Memo
from repro.dag.queries import MaintenanceQuery
from repro.workload.transactions import TransactionType

INF = math.inf


class PageIOCostModel(CostModel):
    """Concrete page-I/O cost model over an expression DAG.

    Query costs have *marking locality*: the cost of probing a node can
    only depend on the materialized nodes at or below it, because the
    recursive re-expression of an unmaterialized lookup never leaves the
    node's descendants. The internal caches therefore key on the marking
    restricted to the target's descendant set, so markings that agree
    below the target share one entry — the cache-key tightening that makes
    the memoized exhaustive search effective.
    """

    #: Declares the descendant-restriction property above; the optimizer's
    #: SearchCache only enables its per-query cost layer when this is set.
    marking_locality = True

    def __init__(
        self,
        memo: Memo,
        estimator: DagEstimator,
        config: CostConfig | None = None,
    ) -> None:
        self._memo = memo
        self._estimator = estimator
        self.config = config if config is not None else CostConfig()
        self._per_key_cache: dict[tuple, float] = {}
        self._scan_cache: dict[tuple, float] = {}
        self._index_cols: dict[int, frozenset[str]] = {}
        self._descendants: dict[int, frozenset[int]] = {}

    def _relevant_marking(
        self, gid: int, marking: frozenset[int]
    ) -> frozenset[int]:
        """The marking restricted to ``gid``'s descendants — the only part
        that can influence a lookup or scan rooted at ``gid``."""
        if not marking:
            return marking
        descendants = self._descendants.get(gid)
        if descendants is None:
            descendants = frozenset(self._memo.descendants(gid))
            self._descendants[gid] = descendants
        return marking & descendants

    # -- query costs ----------------------------------------------------------------

    def query_cost(
        self, query: MaintenanceQuery, marking: frozenset[int], txn: TransactionType
    ) -> float:
        return self.lookup_cost(query.target, query.key_columns, query.n_keys, marking)

    def lookup_cost(
        self,
        group_id: int,
        key_columns: Iterable[str],
        n_keys: float,
        marking: frozenset[int],
    ) -> float:
        """min(indexed per-key cost × keys, full scan)."""
        gid = self._memo.find(group_id)
        cols = self._estimator.info(gid).reduce(key_columns)
        per_key = self.per_key_cost(gid, cols, marking)
        scan = self.scan_cost(gid, marking)
        return min(n_keys * per_key, scan)

    def per_key_cost(
        self, group_id: int, key_columns: frozenset[str], marking: frozenset[int]
    ) -> float:
        """Cost of fetching all rows matching one key value."""
        gid = self._memo.find(group_id)
        cache_key = (gid, key_columns, self._relevant_marking(gid, marking))
        if cache_key in self._per_key_cache:
            return self._per_key_cache[cache_key]
        self._per_key_cache[cache_key] = INF  # cycle guard
        group = self._memo.group(gid)
        info = self._estimator.info(gid)
        if not key_columns:
            result = self.scan_cost(gid, marking)
        elif group.is_leaf or gid in marking:
            # Hash index assumed available (paper: "all indices are hash
            # indices"): one index page plus the matching tuples.
            result = 1.0 + info.fanout(key_columns)
        else:
            result = INF
            for op in group.ops:
                result = min(result, self.per_key_cost_via(op, key_columns, marking))
        self._per_key_cache[cache_key] = result
        return result

    def per_key_cost_via(
        self, op, key_columns: frozenset[str], marking: frozenset[int]
    ) -> float:
        """Cost of fetching all rows matching one key value through one op
        of an unmaterialized group (``inf`` when the op cannot answer it):
        :meth:`per_key_cost` is the cheapest op's."""
        template = op.template
        children = [self._memo.find(c) for c in op.child_ids]
        if isinstance(template, Scan):
            return INF  # leaves are handled at the group level
        if isinstance(template, Select):
            return self.per_key_cost(children[0], key_columns, marking)
        if isinstance(template, Project):
            mapping = {}
            for out, expr in template.outputs:
                if isinstance(expr, Col):
                    mapping[out] = expr.name
            if not all(c in mapping for c in key_columns):
                return INF  # computed column: not index-translatable
            mapped = frozenset(mapping[c] for c in key_columns)
            return self.per_key_cost(children[0], mapped, marking)
        if isinstance(template, Join):
            return min(
                self.join_side_cost(template, children, key_columns, marking, side)
                for side in (0, 1)
            )
        if isinstance(template, GroupAggregate):
            if not key_columns <= set(template.group_by):
                return INF
            return self.per_key_cost(children[0], key_columns, marking)
        if isinstance(template, (Union, Difference)):
            return sum(self.per_key_cost(c, key_columns, marking) for c in children)
        return INF

    def join_side_cost(
        self,
        template: Join,
        children: list[int],
        key_columns: frozenset[str],
        marking: frozenset[int],
        side: int,
    ) -> float:
        """Per-key cost of a join fetch that starts on input ``side`` (0 =
        left): the start side's fetch plus the other side's probe for the
        distinct join-key values it returns; ``inf`` when the key columns
        cannot start there."""
        jc = frozenset(template.join_columns)
        sides = (template.left, template.right)
        side_expr, other_expr = sides[side], sides[1 - side]
        side_gid, other_gid = children[side], children[1 - side]
        side_cols = set(side_expr.schema.names)
        start_cols = key_columns & side_cols
        rest_cols = key_columns - side_cols
        if not start_cols:
            return INF
        if rest_cols and not rest_cols <= set(other_expr.schema.names):
            return INF
        side_info = self._estimator.info(side_gid)
        fetched = side_info.fanout(start_cols)
        # Distinct join-key values among the fetched rows.
        jc_keys = min(
            max(
                side_info.distinct_of(start_cols | jc)
                / max(side_info.distinct_of(start_cols), 1.0),
                1.0,
            ),
            max(fetched, 1.0),
        )
        probe_cols = jc | rest_cols
        cost = self.per_key_cost(side_gid, frozenset(start_cols), marking)
        if probe_cols:
            cost += jc_keys * self.per_key_cost(other_gid, probe_cols, marking)
        else:
            cost += self.scan_cost(other_gid, marking)
        return cost

    def scan_cost(self, group_id: int, marking: frozenset[int]) -> float:
        """Cost of materializing the node's full contents."""
        gid = self._memo.find(group_id)
        cache_key = (gid, self._relevant_marking(gid, marking))
        if cache_key in self._scan_cache:
            return self._scan_cache[cache_key]
        self._scan_cache[cache_key] = INF  # cycle guard
        group = self._memo.group(gid)
        if group.is_leaf or gid in marking:
            result = self._estimator.info(gid).rows
        else:
            result = INF
            for op in group.ops:
                children = [self._memo.find(c) for c in op.child_ids]
                result = min(
                    result, sum(self.scan_cost(c, marking) for c in children)
                )
        self._scan_cache[cache_key] = result
        return result

    # -- update costs ------------------------------------------------------------------

    def index_columns(self, group_id: int) -> frozenset[str]:
        """The single hash index maintained on a materialized node.

        Chosen as the smallest FD-reduced lookup column set any potential
        maintenance query poses on this node (paper §3.6 indexes every
        materialization on DName for exactly this reason); falls back to
        the node's reduced full column set.
        """
        gid = self._memo.find(group_id)
        if gid in self._index_cols:
            return self._index_cols[gid]
        info = self._estimator.info(gid)
        candidates: list[frozenset[str]] = []
        for op in self._memo.ops():
            children = [self._memo.find(c) for c in op.child_ids]
            if gid not in children:
                continue
            template = op.template
            if isinstance(template, Join):
                jc = frozenset(template.join_columns)
                if jc:
                    candidates.append(info.reduce(jc))
            elif isinstance(template, GroupAggregate):
                candidates.append(info.reduce(set(template.group_by)))
        if not candidates:
            candidates.append(info.reduce(self._memo.group(gid).schema.names))
        result = min(candidates, key=lambda s: (len(s), tuple(sorted(s))))
        self._index_cols[gid] = result
        return result

    def update_cost(self, group_id: int, txn: TransactionType) -> float:
        gid = self._memo.find(group_id)
        group = self._memo.group(gid)
        if group.is_leaf:
            return 0.0  # base-relation updates are the transaction itself
        if not self.config.charge_root_update and self.config.root_group is not None:
            if gid == self._memo.find(self.config.root_group):
                return 0.0
        delta = self._estimator.delta(gid, txn)
        if delta is None or delta.is_empty:
            return 0.0
        index_cols = self.index_columns(gid)
        idx_keys = delta.distinct_of(sorted(index_cols)) if index_cols else 1.0
        cost = idx_keys  # index-page reads
        key_changing = bool(index_cols & delta.modified_columns) or (
            delta.inserts > 0 or delta.deletes > 0
        )
        if key_changing:
            cost += idx_keys  # index-page writes
        cost += 2.0 * delta.modifies  # read old + write new
        cost += delta.inserts + delta.deletes  # one page write each
        return cost
