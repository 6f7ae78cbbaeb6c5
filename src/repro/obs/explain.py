"""EXPLAIN / EXPLAIN ANALYZE for update tracks.

``explain`` renders the maintenance plan the optimizer chose for a
transaction type — the update track as an annotated tree with the
analytic cost (the paper's Section 3.6 :class:`PageIOCostModel`) of every
maintenance query and view update. ``explain_analyze`` *executes* a
transaction under a fresh :class:`~repro.obs.trace.Tracer` and renders the
same tree with the estimated and measured columns side by side, where the
measured numbers come from the trace's per-span I/O and tie out bit-exactly
to the commit's ``TransactionResult.io`` (asserted in tests).

This is the live version of the paper's Tables 1–3: query costs per track
op, update costs per materialized view, totals per transaction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.memoize import SearchCache
from repro.core.report import describe_marking
from repro.obs.trace import Tracer
from repro.storage.pager import IOStats
from repro.workload.transactions import Transaction, TransactionType

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.tracks import UpdateTrack
    from repro.engine.engine import Engine, TransactionResult
    from repro.ivm.maintainer import ViewMaintainer


class _Measured:
    """Per-phase I/O recovered from one commit's "txn" span."""

    def __init__(self) -> None:
        self.track_ops: dict[int, IOStats] = {}
        self.view_applies: dict[int, IOStats] = {}
        self.base_applies: dict[str, IOStats] = {}
        self.checks = IOStats()
        self.total = IOStats()

    @classmethod
    def from_span(cls, span) -> "_Measured":
        m = cls()
        m.total = span.io
        for s in span.walk():
            if s.name == "track_op":
                gid = s.attrs.get("node")
                m.track_ops[gid] = m.track_ops.get(gid, IOStats()) + s.io
            elif s.name == "view_apply":
                gid = s.attrs.get("node")
                m.view_applies[gid] = m.view_applies.get(gid, IOStats()) + s.io
            elif s.name == "base_apply":
                rel = s.attrs.get("relation")
                m.base_applies[rel] = m.base_applies.get(rel, IOStats()) + s.io
            elif s.name == "assertion_check":
                m.checks = m.checks + s.io
        return m


def _cell(value: float | int | None, width: int = 10) -> str:
    if value is None:
        return "—".rjust(width)
    if isinstance(value, float):
        return f"{value:.2f}".rjust(width)
    return str(value).rjust(width)


def _render(
    maintainer: "ViewMaintainer",
    txn_type: TransactionType,
    track: "UpdateTrack",
    measured: _Measured | None,
    header: str,
) -> str:
    memo = maintainer.memo
    marking = maintainer.marking
    cost_model = maintainer.cost_model
    estimator = maintainer.estimator
    analyze = measured is not None

    lines = [header]
    lines.append("materialized views:")
    for gid, line in describe_marking(maintainer.dag, marking):
        lines.append(f"  {line}")

    col_header = f"{'est I/O':>10}"
    if analyze:
        col_header += f"  {'measured':>10}"
    lines.append("")
    lines.append(f"update track ({len(track)} ops):{'':<14}{col_header}")

    # The optimizer's own query derivation, so the plan shown is the plan
    # it priced (under the cost model's switches).
    cache = SearchCache(memo, cost_model, estimator)
    all_queries = []
    for gid in sorted(track):
        op = track[gid]
        queries = cache.queries(op, txn_type, memo.find(op.group_id) in marking)
        all_queries.extend(queries)
        est_op = float(sum(cost_model.query_cost(q, marking, txn_type) for q in queries))
        label = f"  N{memo.find(op.group_id)} ← {op.label()}"
        row = f"{label:<40}{_cell(est_op)}"
        if analyze:
            io = measured.track_ops.get(memo.find(gid))
            row += f"  {_cell(io.total if io is not None else None)}"
        lines.append(row)
        for q in queries:
            q_cost = cost_model.query_cost(q, marking, txn_type)
            lines.append(f"      {q.describe(memo)} — {q_cost:.2f} I/Os")
    if not track:
        lines.append("  (no affected materialized views)")

    lines.append("view updates:")
    est_update_total = 0.0
    for gid in sorted(marking):
        if memo.group(gid).is_leaf:
            continue
        if not estimator.affected(gid, txn_type):
            continue
        est_u = cost_model.update_cost(gid, txn_type)
        est_update_total += est_u
        note = ""
        if est_u == 0.0:
            note = " (uncharged)"
        row = f"  {'N%d%s' % (gid, note):<38}{_cell(est_u)}"
        if analyze:
            io = measured.view_applies.get(gid)
            row += f"  {_cell(io.total if io is not None else None)}"
        lines.append(row)

    if analyze and measured.base_applies:
        names = ", ".join(sorted(measured.base_applies))
        base_total = sum(
            (io.total for io in measured.base_applies.values()), 0
        )
        row = f"  {'base: %s (uncharged)' % names:<38}{_cell(None)}"
        row += f"  {_cell(base_total)}"
        lines.append(row)
    if analyze:
        row = f"  {'assertion check':<38}{_cell(None)}"
        row += f"  {_cell(measured.checks.total)}"
        lines.append(row)

    # The MQO total can be below the per-op sum (shared queries answered
    # once); the displayed per-query costs are pre-sharing.
    est_query_total = cost_model.total_query_cost(all_queries, marking, txn_type)
    est_total = est_query_total + est_update_total
    total_row = (
        f"  {'total (MQO query + update)':<38}{_cell(est_total)}"
    )
    if analyze:
        total_row += f"  {_cell(measured.total.total)}"
    lines.append(total_row)
    if analyze:
        lines.append(
            f"commit I/O: {measured.total} — ties out to the commit's IOCounter delta"
        )
        cache = maintainer.last_cache_stats
        if cache is not None and (cache.hits or cache.misses):
            lines.append(
                f"commit cache: {cache.describe()} — measured I/O can sit "
                "below the estimates (see docs/cost_model.md)"
            )
        durable = getattr(maintainer.db, "durable", None)
        if durable is not None and durable.last_commit_stats is not None:
            d = durable.last_commit_stats
            lines.append(
                f"durable log: {d['wal_records']} records / {d['wal_bytes']} B / "
                f"{d['fsyncs']} fsyncs, {d['checkpoints']} checkpoints — actual "
                "log traffic, separate from the simulated accounting above"
            )
    return "\n".join(lines)


def explain(maintainer: "ViewMaintainer", txn_name: str) -> str:
    """Render the chosen update track for a declared transaction type with
    the cost model's estimates (no execution)."""
    txn_type = maintainer.txn_types.get(txn_name)
    if txn_type is None:
        known = ", ".join(sorted(maintainer.txn_types))
        raise KeyError(f"unknown transaction type {txn_name!r} (declared: {known})")
    track = maintainer.tracks.get(txn_name, {})
    return _render(
        maintainer, txn_type, track, None, header=f"=== EXPLAIN {txn_name} ==="
    )


def explain_analyze(
    engine: "Engine", txn: Transaction
) -> "tuple[str, TransactionResult]":
    """Execute ``txn`` through the engine under a fresh tracer and render
    estimated vs measured cost per track op / view / phase.

    Returns ``(rendered text, TransactionResult)``. The transaction *is*
    committed (this is EXPLAIN ANALYZE, not EXPLAIN). An enforcing engine
    that rejects the transaction propagates its
    :class:`AssertionViolation` after the engine's usual atomic rollback.
    """
    tracer = Tracer(engine.db.counter)
    previous = engine.tracer
    engine.set_tracer(tracer)
    try:
        result = engine.execute(txn)
    finally:
        engine.set_tracer(previous)

    header = f"=== EXPLAIN ANALYZE {txn.type_name} ==="
    plan = engine.maintainer.last_plan
    if plan is None:  # pragma: no cover - empty transactions short-circuit
        return "\n".join([header, "no maintenance work recorded"]), result
    txn_type, track = plan
    txn_spans = [s for s in tracer.roots if s.name == "txn"]
    measured = (
        _Measured.from_span(txn_spans[-1]) if txn_spans else _Measured()
    )
    text = _render(engine.maintainer, txn_type, track, measured, header=header)
    return text, result
