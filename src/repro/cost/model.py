"""Abstract cost-model interface.

The paper's results hold "for any monotonic cost model, i.e., any cost
model where the cost of evaluating a specific expression tree is no less
than the cost of evaluating a subtree of that expression tree". The
optimizer only consumes this interface; the concrete page-I/O model of
Section 3.6 lives in :mod:`repro.cost.page_io`, and tests use synthetic
models to check monotonicity-dependent behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.dag.queries import MaintenanceQuery
from repro.workload.transactions import TransactionType


@dataclass(frozen=True)
class CostConfig:
    """Accounting switches, matching the paper's Section 3.6 conventions.

    The paper excludes "the cost of updating the database relations, or the
    top-level view" from its tables; base relations are always excluded
    here (their update is the transaction itself), and root exclusion is a
    flag so both accountings are available.

    ``self_maintenance`` and ``mqo`` are ablation switches (see
    benchmarks/bench_ablations.py): disabling them makes materialized
    aggregates recompute their groups and makes identical queries along a
    track pay full price, respectively. The companion switches for
    functional dependencies and delta-completeness live on
    :class:`~repro.cost.estimates.DagEstimator`, which owns those analyses.
    """

    charge_root_update: bool = False
    root_group: int | None = None
    self_maintenance: bool = True
    mqo: bool = True


class CostModel:
    """Interface the optimizer uses to price maintenance plans."""

    #: Set True by models whose ``query_cost`` depends only on the marking
    #: restricted to the query target's descendants. The optimizer's
    #: memoization (:mod:`repro.core.memoize`) uses this to share per-query
    #: costs across markings that agree below the target; models without
    #: the property are still cached at the coarser layers only.
    marking_locality = False

    #: The accounting switches; models that take a config set their own.
    config: CostConfig = CostConfig()

    def query_cost(
        self, query: MaintenanceQuery, marking: frozenset[int], txn: TransactionType
    ) -> float:
        """Cost of answering one maintenance query given the marking."""
        raise NotImplementedError

    def update_cost(self, group_id: int, txn: TransactionType) -> float:
        """Cost of applying the delta of ``txn`` to materialized node
        ``group_id`` — the M[N, j] table of the paper's Figure 4. This is
        marking-independent, which is why it can be precomputed."""
        raise NotImplementedError

    def total_query_cost(
        self,
        queries: Iterable[MaintenanceQuery],
        marking: frozenset[int],
        txn: TransactionType,
    ) -> float:
        """Multi-query-optimized cost of a query batch: identical queries
        (same target, key columns and purpose) are answered once and their
        results shared — the paper's §3.4 shared-subexpression point.

        With ``config.mqo`` disabled (ablation), every query pays."""
        if not self.config.mqo:
            return sum(self.query_cost(q, marking, txn) for q in queries)
        best: dict[tuple, float] = {}
        for query in queries:
            cost = self.query_cost(query, marking, txn)
            key = query.dedup_key()
            best[key] = max(best.get(key, 0.0), cost)
        return sum(best.values())
