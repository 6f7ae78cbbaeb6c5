"""Incremental view maintenance: deltas and per-operator propagation.

The executable maintenance engine lives in :mod:`repro.ivm.maintainer`
(imported lazily here to avoid a package-initialization cycle with the
cost and core packages; ``from repro import ViewMaintainer`` works).
"""

from repro.ivm.cache import CommitCache, CommitCacheStats
from repro.ivm.delta import Delta
from repro.ivm.propagate import (
    PropagationError,
    propagate_aggregate_full_groups,
    propagate_aggregate_recompute,
    propagate_aggregate_self,
    propagate_difference,
    propagate_join,
    propagate_project,
    propagate_select,
    propagate_union,
    repair_modifications,
)

def __getattr__(name: str):
    if name in ("ViewMaintainer", "MaintenanceError", "group_expression"):
        from repro.ivm import maintainer

        return getattr(maintainer, name)
    if name == "compose_deltas":
        from repro.ivm.compose import compose_deltas

        return compose_deltas
    raise AttributeError(f"module 'repro.ivm' has no attribute {name!r}")


__all__ = [
    "CommitCache",
    "CommitCacheStats",
    "Delta",
    "compose_deltas",
    "MaintenanceError",
    "ViewMaintainer",
    "group_expression",
    "PropagationError",
    "propagate_aggregate_full_groups",
    "propagate_aggregate_recompute",
    "propagate_aggregate_self",
    "propagate_difference",
    "propagate_join",
    "propagate_project",
    "propagate_select",
    "propagate_union",
    "repair_modifications",
]
