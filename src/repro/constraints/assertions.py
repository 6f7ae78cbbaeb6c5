"""SQL-92 assertion checking as empty-view maintenance (paper §1, §6).

"An assertion can be modeled as a materialized view, and the problem then
becomes one of computing the incremental update to the materialized view."
The :class:`AssertionSystem` does exactly that: each assertion's SELECT is
materialized (it should stay empty), the optimizer picks the auxiliary
views that make its maintenance cheap, and every transaction committed
through the system's one :class:`~repro.engine.engine.Engine`
(``system.engine.execute(txn)``) reports, in its
:class:`~repro.engine.engine.TransactionResult`, the rows that newly
violate (enter) or stop violating (leave) each assertion. With
``enforce=True`` the engine rejects a violating transaction instead: base
relations and every view are rolled back atomically (uncharged) and
:class:`AssertionViolation` is raised.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.algebra.multiset import Multiset
from repro.algebra.operators import RelExpr
from repro.cost.estimates import DagEstimator
from repro.cost.model import CostConfig
from repro.cost.page_io import PageIOCostModel
from repro.core.optimizer import OptimizationResult, optimal_view_set
from repro.core.heuristics import greedy_view_set
from repro.dag.builder import build_multi_dag
from repro.engine import Engine
from repro.ivm.maintainer import ViewMaintainer
from repro.sql.translate import translate_sql
from repro.storage.database import Database
from repro.storage.statistics import Catalog
from repro.workload.transactions import TransactionType


class AssertionViolation(Exception):
    """Raised in ``enforce`` mode when a transaction violates an assertion."""

    def __init__(self, assertion: str, rows: Multiset) -> None:
        self.assertion = assertion
        self.rows = rows
        preview = ", ".join(str(r) for r in list(rows.rows())[:3])
        super().__init__(f"assertion {assertion!r} violated by rows: {preview}")


class AssertionSystem:
    """Maintains a set of SQL-92 assertions over a database."""

    def __init__(
        self,
        db: Database,
        assertions: Mapping[str, RelExpr] | Iterable[str],
        txns: Sequence[TransactionType],
        catalog: Catalog | None = None,
        exhaustive: bool = True,
        enforce: bool = False,
        commit_cache: bool | None = None,
    ) -> None:
        self.db = db
        self.enforce = enforce
        if not isinstance(assertions, Mapping):
            translated = {}
            schemas = {rel.name: rel.schema for rel in db}
            for text in assertions:
                result = translate_sql(text, schemas)
                if not result.is_assertion:
                    raise ValueError(f"statement {result.name!r} is not an assertion")
                translated[result.name] = result.expr
            assertions = translated
        self.assertions: dict[str, RelExpr] = dict(assertions)
        self.txns = list(txns)
        self.dag = build_multi_dag(self.assertions)
        self.catalog = catalog or Catalog.from_database(db)
        self.estimator = DagEstimator(self.dag.memo, self.catalog)
        # Assertion views are (nearly) empty, so updating them is nearly
        # free; keep root charging on for honesty.
        self.cost_model = PageIOCostModel(
            self.dag.memo, self.estimator, CostConfig(charge_root_update=True)
        )
        if exhaustive:
            self.plan: OptimizationResult = optimal_view_set(
                self.dag, self.txns, self.cost_model, self.estimator
            )
        else:
            self.plan = greedy_view_set(
                self.dag, self.txns, self.cost_model, self.estimator
            )
        tracks = {name: p.track for name, p in self.plan.best.per_txn.items()}
        self.maintainer = ViewMaintainer(
            db,
            self.dag,
            self.plan.best_marking,
            self.txns,
            tracks,
            self.estimator,
            self.cost_model,
            charge_root_update=True,
            commit_cache=commit_cache,
        )
        self.maintainer.materialize()
        self._roots = {
            name: self.dag.root_of(name) for name in self.assertions
        }
        self._build_engine()

    def _build_engine(self) -> None:
        # Every transaction commits through this one engine: it reports
        # violations, or, with ``enforce``, rejects a violating transaction
        # with an atomic (uncharged) rollback.
        self.engine = Engine(
            self.maintainer, enforce=self.enforce, assertion_roots=self._roots
        )

    def use_maintainer(self, maintainer: ViewMaintainer) -> None:
        """Swap in a different (already materialized) maintainer and rebuild
        the engine around it — e.g. to compare view-set choices over the
        same assertion DAG (benchmarks/bench_assertions.py)."""
        self.maintainer = maintainer
        self._build_engine()

    @property
    def roots(self) -> dict[str, int]:
        """Assertion name → DAG root group id (the violation views)."""
        return dict(self._roots)

    # -- current state ---------------------------------------------------------------

    def current_violations(self, assertion: str) -> Multiset:
        return self.maintainer.view_contents(self._roots[assertion])

    def all_satisfied(self) -> bool:
        return all(not self.current_violations(a) for a in self.assertions)
