"""Memoization layer for the Algorithm OptimalViewSet hot path.

The paper's Figure 4 precomputes the marking-independent update costs
``M[N, j]`` *once* (step 1) before enumerating candidate view sets; the
seed implementation recomputed them — and re-ran the affected test, track
enumeration, and query derivation — for every one of the 2^k markings.
:class:`SearchCache` restores the paper's structure and extends it to the
other marking-recurrent quantities:

* **M[N, j] and the affected bitmap** — ``update_cost`` is
  marking-independent by the :class:`~repro.cost.model.CostModel` contract,
  and whether a node is affected depends only on the transaction's updated
  relations; both are computed once per (node, transaction type).
* **Update tracks** — keyed by ``(frozenset(affected marked nodes), txn)``.
  Tracks depend only on which marked nodes receive a delta, and the same
  affected subset recurs across many markings (every marking that differs
  only in unaffected nodes shares its tracks).
* **Maintenance queries** — keyed by ``(op, txn, own-group-marked?)``.
  :func:`~repro.dag.queries.derive_queries` consults the marking only to
  decide whether the op's own aggregate is self-maintainable, so two bits
  of context fully determine the result.
* **Per-query costs** — keyed by the query identity plus the marking
  restricted to the query target's descendants. A
  :class:`~repro.cost.page_io.PageIOCostModel` lookup can only be
  influenced by materialized nodes below its target, so structurally
  identical restrictions share one entry. This layer is enabled only for
  cost models that declare ``marking_locality`` and inherit the stock
  MQO ``total_query_cost``; other models are delegated to wholesale.

All keys use canonical (union-find representative) group ids. A cache is
valid as long as the memo structure, the estimator's statistics, and the
mapping from transaction-type *name* to update spec stay fixed; transaction
weights may change freely (nothing cached depends on them), so one cache
can serve repeated searches under re-weighted copies of the same
transaction types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.cost.estimates import DagEstimator
from repro.cost.model import CostModel
from repro.core.tracks import UpdateTrack, collect_tracks
from repro.dag.memo import Memo
from repro.dag.nodes import OperationNode
from repro.dag.queries import MaintenanceQuery, derive_queries
from repro.workload.transactions import TransactionType


@dataclass
class OptimizerStats:
    """Counters and timings for one view-set search (or a shared cache).

    ``*_hits`` / ``*_misses`` count cache consultations per layer;
    ``phase_seconds`` records wall-clock per search phase (``precompute``,
    ``shielding``, ``search``).
    """

    view_sets_costed: int = 0
    update_costs_computed: int = 0
    track_hits: int = 0
    track_misses: int = 0
    tracks_enumerated: int = 0
    query_hits: int = 0
    query_misses: int = 0
    cost_hits: int = 0
    cost_misses: int = 0
    phase_seconds: dict[str, float] = field(default_factory=dict)

    def add_phase(self, name: str, seconds: float) -> None:
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds

    @property
    def cache_hits(self) -> int:
        return self.track_hits + self.query_hits + self.cost_hits

    @staticmethod
    def _ratio(hits: int, misses: int) -> str:
        total = hits + misses
        if not total:
            return "0 hits"
        return f"{hits}/{total} hits ({100.0 * hits / total:.0f}%)"

    def lines(self) -> list[str]:
        out = [
            f"view sets costed: {self.view_sets_costed}",
            f"M[N, j] update costs computed: {self.update_costs_computed}",
            f"track cache: {self._ratio(self.track_hits, self.track_misses)}, "
            f"{self.tracks_enumerated} tracks enumerated",
            f"query cache: {self._ratio(self.query_hits, self.query_misses)}",
            f"query-cost cache: {self._ratio(self.cost_hits, self.cost_misses)}",
        ]
        if self.phase_seconds:
            phases = ", ".join(
                f"{name} {seconds * 1000.0:.1f}ms"
                for name, seconds in self.phase_seconds.items()
            )
            out.append(f"wall clock: {phases}")
        return out


class SearchCache:
    """Shared memoization for view-set searches over one (memo, estimator,
    cost model) triple.

    One cache may serve many searches — the exhaustive loop, its shielding
    sub-searches and the greedy hill-climb — as long as the underlying DAG
    and statistics do not change.
    """

    def __init__(
        self,
        memo: Memo,
        cost_model: CostModel,
        estimator: DagEstimator,
    ) -> None:
        self.memo = memo
        self.cost_model = cost_model
        self.estimator = estimator
        self.stats = OptimizerStats()
        self._allow_self_maintenance = cost_model.config.self_maintenance
        # Per-query cost caching requires the model's query costs to depend
        # only on the marking below the target, and the stock MQO
        # total_query_cost; anything else is delegated to wholesale.
        self._local_costs = bool(
            getattr(cost_model, "marking_locality", False)
        ) and type(cost_model).total_query_cost is CostModel.total_query_cost
        self._update_costs: dict[tuple[int, str], float] = {}
        self._affected: dict[str, frozenset[int]] = {}
        self._tracks: dict[
            tuple[frozenset[int], str, int | None],
            tuple[tuple[UpdateTrack, ...], bool],
        ] = {}
        self._queries: dict[
            tuple[int, str, bool], tuple[MaintenanceQuery, ...]
        ] = {}
        self._query_costs: dict[tuple, float] = {}
        self._descendants: dict[int, frozenset[int]] = {}

    # -- Fig. 4 step 1 ------------------------------------------------------------

    def precompute(
        self, candidates: Iterable[int], txns: Sequence[TransactionType]
    ) -> None:
        """Precompute M[N, j] and the affected bitmap for every candidate
        node and transaction type (idempotent — repeated calls for
        sub-searches only fill in what is missing)."""
        for txn in txns:
            self.affected_set(txn)
            for gid in candidates:
                self.update_cost(gid, txn)

    def affected_set(self, txn: TransactionType) -> frozenset[int]:
        """Canonical ids of every affected equivalence node for ``txn``."""
        cached = self._affected.get(txn.name)
        if cached is None:
            cached = frozenset(
                group.id
                for group in self.memo.groups()
                if self.estimator.affected(group.id, txn)
            )
            self._affected[txn.name] = cached
        return cached

    def affected_targets(
        self, marking: frozenset[int], txn: TransactionType
    ) -> list[int]:
        """The affected members of a marking, in the marking's iteration
        order (matching the uncached evaluation exactly)."""
        affected = self.affected_set(txn)
        return [g for g in marking if g in affected]

    def update_cost(self, group_id: int, txn: TransactionType) -> float:
        gid = self.memo.find(group_id)
        key = (gid, txn.name)
        cached = self._update_costs.get(key)
        if cached is None:
            cached = self.cost_model.update_cost(gid, txn)
            self._update_costs[key] = cached
            self.stats.update_costs_computed += 1
        return cached

    # -- tracks -------------------------------------------------------------------

    def tracks(
        self,
        targets: frozenset[int],
        txn: TransactionType,
        limit: int | None = None,
    ) -> tuple[tuple[UpdateTrack, ...], bool]:
        """All update tracks for the affected marked set, plus a truncation
        flag when ``limit`` cut the enumeration short."""
        key = (targets, txn.name, limit)
        cached = self._tracks.get(key)
        if cached is not None:
            self.stats.track_hits += 1
            return cached
        self.stats.track_misses += 1
        tracks, truncated = collect_tracks(
            self.memo, targets, txn, self.estimator, limit
        )
        self.stats.tracks_enumerated += len(tracks)
        self._tracks[key] = (tracks, truncated)
        return tracks, truncated

    # -- queries and their costs ----------------------------------------------------

    def queries(
        self, op: OperationNode, txn: TransactionType, own_marked: bool
    ) -> tuple[MaintenanceQuery, ...]:
        """The maintenance queries ``op`` poses for ``txn``.

        ``derive_queries`` consults the marking only to test whether the
        op's own group is materialized (self-maintainable aggregates), so
        ``own_marked`` fully captures the marking-dependence.
        """
        key = (op.id, txn.name, own_marked)
        cached = self._queries.get(key)
        if cached is not None:
            self.stats.query_hits += 1
            return cached
        self.stats.query_misses += 1
        marking = (
            frozenset({self.memo.find(op.group_id)}) if own_marked else frozenset()
        )
        result = tuple(
            derive_queries(
                self.memo,
                op,
                txn,
                marking,
                self.estimator,
                self._allow_self_maintenance,
            )
        )
        self._queries[key] = result
        return result

    def descendants(self, group_id: int) -> frozenset[int]:
        gid = self.memo.find(group_id)
        cached = self._descendants.get(gid)
        if cached is None:
            cached = frozenset(self.memo.descendants(gid))
            self._descendants[gid] = cached
        return cached

    def total_query_cost(
        self,
        queries: Sequence[MaintenanceQuery],
        marking: frozenset[int],
        txn: TransactionType,
    ) -> float:
        """Multi-query-optimized batch cost, with per-query costs cached
        under the marking restricted to each target's descendants."""
        if not self._local_costs:
            return self.cost_model.total_query_cost(queries, marking, txn)
        if not self.cost_model.config.mqo:
            return sum(self._query_cost(q, marking, txn) for q in queries)
        best: dict[tuple, float] = {}
        for query in queries:
            cost = self._query_cost(query, marking, txn)
            key = query.dedup_key()
            best[key] = max(best.get(key, 0.0), cost)
        return sum(best.values())

    def _query_cost(
        self, query: MaintenanceQuery, marking: frozenset[int], txn: TransactionType
    ) -> float:
        restricted = marking & self.descendants(query.target)
        key = (query.target, query.key_columns, query.n_keys, restricted)
        cached = self._query_costs.get(key)
        if cached is not None:
            self.stats.cost_hits += 1
            return cached
        self.stats.cost_misses += 1
        cost = self.cost_model.query_cost(query, marking, txn)
        self._query_costs[key] = cost
        return cost
