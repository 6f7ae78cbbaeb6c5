"""Observability: structured tracing, metrics, and EXPLAIN ANALYZE.

The tracer records a span tree per commit (transaction →
per-track-op propagation → per-view apply → assertion check), each span
carrying its scoped page I/O and wall time; per-span I/Os tie out exactly
to the engine's :class:`~repro.storage.pager.IOCounter`. The default
:data:`NULL_TRACER` makes every instrumentation point a no-op.
"""

from repro.obs.metrics import METRICS, Counter, Histogram, MetricsRegistry, get_metrics
from repro.obs.trace import (
    NULL_TRACER,
    TRACE_VERSION,
    NullTracer,
    Span,
    Tracer,
    trace_to_json,
    validate_trace,
)


def __getattr__(name):
    # explain/explain_analyze depend on the optimizer and maintainer layers,
    # which themselves import repro.obs.trace — loading them eagerly here
    # would make every `import repro.obs.trace` circular. Resolve lazily,
    # rebinding the function over the same-named submodule attribute.
    if name in ("explain", "explain_analyze"):
        import importlib

        mod = importlib.import_module("repro.obs.explain")
        globals()["explain"] = mod.explain
        globals()["explain_analyze"] = mod.explain_analyze
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "METRICS",
    "NULL_TRACER",
    "TRACE_VERSION",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "Span",
    "Tracer",
    "explain",
    "explain_analyze",
    "get_metrics",
    "trace_to_json",
    "validate_trace",
]
