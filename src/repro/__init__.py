"""repro — Materialized View Maintenance and Integrity Constraint Checking:
Trading Space for Time (Ross, Srivastava & Sudarshan, SIGMOD 1996).

A full reimplementation of the paper's system: a relational-algebra engine
with multiset semantics, a Volcano-style expression-DAG optimizer that
chooses which *additional* views to materialize so a given view (or SQL-92
assertion) is cheapest to maintain incrementally, the Section 3.6 page-I/O
cost model, the Shielding Principle, the Section 5 heuristics, and an
executable maintenance engine whose measured page I/Os validate the
analytic costs.

Quickstart::

    from repro import (
        Database, Catalog, build_dag, DagEstimator, PageIOCostModel,
        CostConfig, optimal_view_set, translate_sql,
    )

See examples/quickstart.py for the end-to-end flow.
"""

from repro.algebra import (
    AggSpec,
    Col,
    Compare,
    DataType,
    GroupAggregate,
    Join,
    Multiset,
    Project,
    RelExpr,
    Scan,
    Schema,
    Select,
    col,
    evaluate,
    lit,
    render_tree,
)
from repro.constraints.assertions import AssertionSystem, AssertionViolation
from repro.core.articulation import articulation_groups
from repro.core.heuristics import (
    greedy_view_set,
    heuristic_single_tree,
    heuristic_single_view_set,
)
from repro.core.multiview import MultiViewProblem
from repro.core.optimizer import evaluate_view_set, optimal_view_set
from repro.core.report import render_report
from repro.core.space import space_time_curve
from repro.core.plan import OptimizationResult, ViewSetEvaluation
from repro.cost.estimates import DagEstimator
from repro.cost.model import CostConfig, CostModel
from repro.cost.page_io import PageIOCostModel
from repro.dag.builder import ViewDag, build_dag, build_multi_dag
from repro.dag.display import count_trees, render_dag
from repro.engine import Engine, EngineError, TransactionResult, UndoLog
from repro.ivm.delta import Delta
from repro.ivm.maintainer import ViewMaintainer
from repro.obs import (
    MetricsRegistry,
    Tracer,
    explain,
    explain_analyze,
    get_metrics,
    trace_to_json,
    validate_trace,
)
from repro.shell import ShellSession
from repro.sql.translate import translate_sql
from repro.storage.database import Database
from repro.storage.statistics import Catalog, TableStats
from repro.workload.transactions import Transaction, TransactionType, UpdateSpec

__version__ = "1.0.0"

__all__ = [
    "AggSpec",
    "AssertionSystem",
    "AssertionViolation",
    "Catalog",
    "Col",
    "Compare",
    "CostConfig",
    "CostModel",
    "DagEstimator",
    "DataType",
    "Database",
    "Delta",
    "Engine",
    "EngineError",
    "GroupAggregate",
    "MetricsRegistry",
    "Join",
    "Multiset",
    "MultiViewProblem",
    "OptimizationResult",
    "PageIOCostModel",
    "Project",
    "RelExpr",
    "Scan",
    "Schema",
    "Select",
    "ShellSession",
    "TableStats",
    "Tracer",
    "Transaction",
    "TransactionResult",
    "TransactionType",
    "UndoLog",
    "UpdateSpec",
    "ViewDag",
    "ViewMaintainer",
    "ViewSetEvaluation",
    "articulation_groups",
    "build_dag",
    "build_multi_dag",
    "col",
    "count_trees",
    "evaluate",
    "evaluate_view_set",
    "explain",
    "explain_analyze",
    "get_metrics",
    "greedy_view_set",
    "heuristic_single_tree",
    "heuristic_single_view_set",
    "lit",
    "optimal_view_set",
    "render_report",
    "space_time_curve",
    "render_dag",
    "render_tree",
    "trace_to_json",
    "translate_sql",
    "validate_trace",
]
