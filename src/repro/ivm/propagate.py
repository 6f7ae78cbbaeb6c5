"""Per-operator delta propagation (the counting algorithm, paper §2.2).

Each ``propagate_*`` function computes the delta of an operator's output
from the delta(s) of its input(s), using *fetch callbacks* for the queries
the paper describes: "to compute the Δ on the result of an operation,
queries may have to be set up on the inputs to the operation". The caller
(the maintainer/executor) decides how a fetch is answered — an indexed
lookup on a materialized view, a recursive computation over the DAG, or a
plain in-memory multiset in tests — and is charged accordingly.

All functions are pure with respect to their inputs; correctness is pinned
by property tests asserting ``new_state == old_state + delta`` against
from-scratch re-evaluation for random update streams.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.algebra.compile import (
    aggregate_fn,
    apply_join,
    apply_join_fetched,
    apply_project,
    apply_select,
    row_mapper,
    row_predicate,
    tuple_getter,
)
from repro.algebra.multiset import Multiset, Row
from repro.algebra.operators import (
    Difference,
    DuplicateElim,
    GroupAggregate,
    Join,
    Project,
    Select,
)
from repro.algebra.schema import Schema
from repro.ivm.delta import Delta
from repro.obs.trace import NULL_TRACER

# A fetch callback: given a set of key values over fixed columns, return all
# matching rows of the *old* state of some relation, as a multiset.
Fetch = Callable[[set[tuple[Any, ...]]], Multiset]


def _cache_counts(fetch: Fetch) -> tuple[int, int] | None:
    """Commit-cache (hits, misses) counters exposed by a fetch, if any.

    A fetch backed by a live :class:`~repro.ivm.cache.CommitCache` carries
    a ``cache_info`` attribute (the cache's ``counts`` accessor); plain
    fetches — tests, cache-off runs — simply lack it.
    """
    info = getattr(fetch, "cache_info", None)
    return info() if info is not None else None


def _annotate_cache(span, fetch: Fetch, before: tuple[int, int] | None) -> None:
    """Record how many cache hits/misses this fetch span caused."""
    if before is None:
        return
    after = _cache_counts(fetch)
    if after is None:
        return
    span.annotate(cache_hits=after[0] - before[0], cache_misses=after[1] - before[1])


class PropagationError(Exception):
    """Raised when a propagation mode's preconditions are violated."""


def can_self_maintain(
    expr: GroupAggregate,
    removals: bool,
    modified_columns: Iterable[str] = (),
) -> bool:
    """Whether a *materialized* aggregate can absorb a delta from its own
    old rows alone, without querying its input (classic IVM theory):

    * MIN/MAX qualify only for growth: no removals and no modification of
      their argument columns (a removal or a changed value can expose a
      new extremum, which only the input knows);
    * AVG qualifies only alongside an explicit COUNT (to reconstruct the
      running sum);
    * when ``removals`` is possible — explicit deletions, or modifications
      that move rows between groups — an explicit COUNT is required to
      detect emptied groups (and MIN/MAX disqualify entirely).

    SUM/COUNT under insertions and in-place modifications always qualify,
    which is exactly the paper's N3 read-modify-write case.
    """
    modified = frozenset(modified_columns)
    funcs = [a.func for a in expr.aggregates]
    if any(f in ("min", "max") for f in funcs):
        if removals:
            return False
        for agg in expr.aggregates:
            if agg.func in ("min", "max"):
                assert agg.arg is not None
                if agg.arg.columns() & modified:
                    return False
    has_count = any(f == "count" for f in funcs)
    if "avg" in funcs and not has_count:
        return False
    if removals and not has_count:
        return False
    return True


def repair_modifications(schema: Schema, delta: Delta) -> Delta:
    """Re-pair inserts/deletes that share a candidate key into modifies.

    Propagation works on signed multisets internally; when the output schema
    has a declared key, a (delete old, insert new) pair on the same key is
    semantically a modification, and pairing it back up lets storage charge
    read-modify-write (paper nodes N3/N4)."""
    if not schema.keys or (not delta.inserts and not delta.deletes):
        return delta
    key = min(schema.keys, key=lambda k: (len(k), sorted(k)))
    positions = [schema.index_of(a) for a in sorted(key)]
    return delta.pair_modifications(positions)


# -- unary operators -----------------------------------------------------------------


def propagate_select(expr: Select, delta: Delta) -> Delta:
    """σ commutes with deltas: filter every component."""
    passes = row_predicate(expr.predicate, expr.input.schema.names)
    out = Delta(
        inserts=apply_select(expr, delta.inserts),
        deletes=apply_select(expr, delta.deletes),
    )
    for old, new in delta.modifies:
        old_in, new_in = passes(old), passes(new)
        if old_in and new_in:
            out.modifies.append((old, new))
        elif old_in:
            out.deletes.add(old, 1)
        elif new_in:
            out.inserts.add(new, 1)
    return out


def propagate_project(expr: Project, delta: Delta, old_input: Multiset | None = None) -> Delta:
    """π maps deltas row-wise; dedup needs the old input to detect 0↔1
    transitions of distinct counts."""
    if expr.dedup:
        if old_input is None:
            raise PropagationError("dedup projection requires the old input state")
        plain = Project(expr.input, expr.outputs, dedup=False)
        old_out_counts = apply_project(plain, old_input)
        inner = propagate_project(plain, delta)
        return _dedup_from_counts(old_out_counts, inner)
    map_row = row_mapper(expr.outputs, expr.input.schema.names)
    out = Delta(
        inserts=apply_project(expr, delta.inserts),
        deletes=apply_project(expr, delta.deletes),
    )
    for old, new in delta.modifies:
        old_p, new_p = map_row(old), map_row(new)
        if old_p != new_p:
            out.modifies.append((old_p, new_p))
    return out


def propagate_dedup(
    expr: DuplicateElim, delta: Delta, old_input: Multiset
) -> Delta:
    """δ emits an insert when a row's count rises from zero and a delete
    when it falls to zero."""
    return _dedup_from_counts(old_input, delta)


def _dedup_from_counts(old_counts: Multiset, delta: Delta) -> Delta:
    net = delta.net()
    out = Delta()
    for row, change in net.items():
        before = old_counts.count(row)
        after = before + change
        if after < 0:
            raise PropagationError(f"negative count for {row} after delta")
        if before == 0 and after > 0:
            out.inserts.add(row, 1)
        elif before > 0 and after == 0:
            out.deletes.add(row, 1)
    return out


# -- join ---------------------------------------------------------------------------


def propagate_join(
    expr: Join,
    left_delta: Delta | None,
    right_delta: Delta | None,
    fetch_left: Fetch | None,
    fetch_right: Fetch | None,
    tracer=None,
) -> Delta:
    """Δ(L ⋈ R) = ΔL ⋈ R_old  +  L_new ⋈ ΔR   (counting form).

    ``fetch_left`` / ``fetch_right`` answer semijoin queries on the old
    states (the paper's Q2Re/Q5Ld-style queries), keyed by the join columns.
    A fetch is only invoked when the corresponding side has a delta, so an
    unaffected side never requires one. ``tracer`` records one "fetch" span
    per invoked fetch (I/O attributed to the probed side).
    """
    left_net = left_delta.net() if left_delta is not None else Multiset()
    right_net = right_delta.net() if right_delta is not None else Multiset()
    out_net = propagate_join_net(
        expr, left_net, right_net, fetch_left, fetch_right, tracer=tracer
    )
    return repair_modifications(expr.schema, Delta.from_net(out_net))


def propagate_join_net(
    expr: Join,
    left_net: Multiset,
    right_net: Multiset,
    fetch_left: Fetch | None,
    fetch_right: Fetch | None,
    tracer=None,
) -> Multiset:
    """Net-to-net core of :func:`propagate_join`.

    Takes and returns signed multisets with no ``Delta`` boxing, so a chain
    of joins (a left-deep spine) can thread one signed multiset through all
    levels and pay the modification re-pairing cost once, at the node where
    the delta is actually applied — pairing at intermediate nodes is
    semantically invisible because the next level's ``net()`` flattens it
    right back.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    shared = expr.join_columns
    left_schema, right_schema = expr.left.schema, expr.right.schema
    left_idx = [left_schema.index_of(c) for c in shared]

    def key_set(net: Multiset, idx: list[int]) -> set:
        # Single-column keys: inline the subscript (no per-row call); the
        # fetch still sees 1-tuples, matching the index key layout.
        if len(idx) == 1:
            i = idx[0]
            return {(r[i],) for r in net.rows()}
        getter = tuple_getter(idx)
        return {getter(r) for r in net.rows()}

    left_part: Multiset | None = None
    if left_net:
        if fetch_right is None:
            raise PropagationError("left delta requires a fetch on the right input")
        keys = key_set(left_net, left_idx)
        # A fetch that can serve bucket-grained results (an indexed base
        # relation or materialized view, hashed on exactly the join key)
        # exposes ``.buckets``; the join then probes the index's own hash
        # layout instead of re-building one. Same I/O charges either way.
        bucket_fetch = getattr(fetch_right, "buckets", None)
        with tracer.span(
            "fetch", side="R", keys=len(keys), bucketed=bucket_fetch is not None
        ) as span:
            before = _cache_counts(fetch_right)
            if bucket_fetch is not None:
                left_part = apply_join_fetched(expr, left_net, bucket_fetch(keys))
            else:
                right_old = fetch_right(keys)
                left_part = apply_join(expr, left_net, right_old)
            _annotate_cache(span, fetch_right, before)
    if right_net:
        if fetch_left is None:
            raise PropagationError("right delta requires a fetch on the left input")
        keys = key_set(right_net, [right_schema.index_of(c) for c in shared])
        with tracer.span("fetch", side="L", keys=len(keys), bucketed=False) as span:
            before = _cache_counts(fetch_left)
            left_old = fetch_left(keys)
            _annotate_cache(span, fetch_left, before)
        # L_new = L_old + ΔL restricted to the touched keys.
        left_key = tuple_getter(left_idx)
        left_new = left_old.copy()
        for row, count in left_net.items():
            if left_key(row) in keys:
                left_new.add(row, count)
        right_part = apply_join(expr, left_new, right_net)
        if left_part is None:
            return right_part
        left_part.update(right_part)
        return left_part
    return left_part if left_part is not None else Multiset()


# -- aggregation ------------------------------------------------------------------------


def affected_group_keys(expr: GroupAggregate, delta: Delta) -> set[tuple[Any, ...]]:
    """The distinct group keys touched by an input delta."""
    in_schema = expr.input.schema
    group_of = tuple_getter([in_schema.index_of(g) for g in expr.group_by])
    keys: set[tuple[Any, ...]] = set()
    for source in (delta.inserts.rows(), delta.deletes.rows()):
        for row in source:
            keys.add(group_of(row))
    for old, new in delta.modifies:
        keys.add(group_of(old))
        keys.add(group_of(new))
    return keys


def propagate_aggregate_recompute(
    expr: GroupAggregate, delta: Delta, fetch_group: Fetch, tracer=None
) -> Delta:
    """γ by re-computation: fetch each affected group's old input rows (the
    paper's Q4e-style query), compute old and new aggregate rows."""
    keys = affected_group_keys(expr, delta)
    if not keys:
        return Delta()
    tracer = tracer if tracer is not None else NULL_TRACER
    with tracer.span("fetch", side="input", keys=len(keys), bucketed=False) as span:
        before = _cache_counts(fetch_group)
        old_rows = fetch_group(keys)
        _annotate_cache(span, fetch_group, before)
    return _aggregate_delta_from_states(expr, old_rows, delta, keys)


def propagate_aggregate_full_groups(expr: GroupAggregate, delta: Delta) -> Delta:
    """γ when the delta *covers whole groups* (delta-completeness, the
    paper's key-based Q3d elimination): every affected group's old content
    is exactly the delta's deleted side, so no input query is needed."""
    keys = affected_group_keys(expr, delta)
    if not keys:
        return Delta()
    old_rows = delta.all_deleted()
    return _aggregate_delta_from_states(expr, old_rows, delta, keys)


def _aggregate_delta_from_states(
    expr: GroupAggregate,
    old_rows: Multiset,
    delta: Delta,
    keys: set[tuple[Any, ...]],
) -> Delta:
    in_schema = expr.input.schema
    names = in_schema.names
    group_of = tuple_getter([in_schema.index_of(g) for g in expr.group_by])
    agg_fns = [aggregate_fn(spec, names) for spec in expr.aggregates]

    def partition(ms: Multiset) -> dict[tuple[Any, ...], list[tuple[Row, int]]]:
        groups: dict[tuple[Any, ...], list[tuple[Row, int]]] = {}
        for row, count in ms.items():
            key = group_of(row)
            if key in keys:
                groups.setdefault(key, []).append((row, count))
        return groups

    old_by_group = partition(old_rows)
    new_rows = old_rows.copy()
    new_rows.update(delta.net())
    if not new_rows.is_nonnegative():
        raise PropagationError("aggregate input would have negative counts")
    new_by_group = partition(new_rows)

    out = Delta()
    for key in keys:
        old_group = old_by_group.get(key)
        new_group = new_by_group.get(key)
        old_row = None
        if old_group:
            old_row = key + tuple(fn(old_group) for fn in agg_fns)
        new_row = None
        if new_group:
            new_row = key + tuple(fn(new_group) for fn in agg_fns)
        if old_row is not None and new_row is not None:
            if old_row != new_row:
                out.modifies.append((old_row, new_row))
        elif old_row is not None:
            out.deletes.add(old_row, 1)
        elif new_row is not None:
            out.inserts.add(new_row, 1)
    return repair_modifications(expr.schema, out)


# -- union / difference --------------------------------------------------------------------


def propagate_union(delta_left: Delta | None, delta_right: Delta | None) -> Delta:
    """∪ (bag): deltas add."""
    out = Delta()
    for d in (delta_left, delta_right):
        if d is None:
            continue
        out.inserts.update(d.inserts)
        out.deletes.update(d.deletes)
        out.modifies.extend(d.modifies)
    return out


def propagate_difference(
    expr: Difference,
    delta_left: Delta | None,
    delta_right: Delta | None,
    old_left: Multiset,
    old_right: Multiset,
) -> Delta:
    """EXCEPT ALL (monus) is non-linear: recompute the affected rows.

    Only rows mentioned in either delta can change, so the output delta is
    computed from old/new counts of exactly those rows.
    """
    left_net = delta_left.net() if delta_left is not None else Multiset()
    right_net = delta_right.net() if delta_right is not None else Multiset()
    touched = set(left_net.rows()) | set(right_net.rows())
    out_net = Multiset()
    for row in touched:
        old_count = max(old_left.count(row) - old_right.count(row), 0)
        new_count = max(
            old_left.count(row) + left_net.count(row)
            - old_right.count(row) - right_net.count(row),
            0,
        )
        out_net.add(row, new_count - old_count)
    return repair_modifications(expr.schema, Delta.from_net(out_net))
