"""The paper's contribution: view-set optimization over expression DAGs."""

from repro.core.articulation import articulation_groups, local_optimum
from repro.core.heuristics import (
    approximate_view_set,
    greedy_view_set,
    heuristic_single_tree,
    heuristic_single_view_set,
    structural_marking,
)
from repro.core.memoize import OptimizerStats, SearchCache
from repro.core.multiview import MultiViewProblem
from repro.core.optimizer import (
    SearchSpaceError,
    evaluate_view_set,
    optimal_view_set,
)
from repro.core.plan import OptimizationResult, TxnPlan, ViewSetEvaluation
from repro.core.report import render_report
from repro.core.serialize import (
    PlanFormatError,
    dag_fingerprint,
    load_plan,
    plan_from_dict,
    plan_to_dict,
    save_plan,
)
from repro.core.space import (
    marking_space,
    space_time_curve,
    view_space_pages,
)
from repro.core.tracks import describe_track, enumerate_tracks

__all__ = [
    "MultiViewProblem",
    "OptimizerStats",
    "OptimizationResult",
    "SearchCache",
    "PlanFormatError",
    "SearchSpaceError",
    "TxnPlan",
    "ViewSetEvaluation",
    "approximate_view_set",
    "articulation_groups",
    "describe_track",
    "enumerate_tracks",
    "evaluate_view_set",
    "greedy_view_set",
    "marking_space",
    "render_report",
    "dag_fingerprint",
    "load_plan",
    "plan_from_dict",
    "plan_to_dict",
    "save_plan",
    "space_time_curve",
    "view_space_pages",
    "heuristic_single_tree",
    "heuristic_single_view_set",
    "local_optimum",
    "optimal_view_set",
    "structural_marking",
]
