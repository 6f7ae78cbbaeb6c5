"""Per-operator delta propagation (the counting algorithm, paper §2.2).

Each ``propagate_*`` function computes the delta of an operator's output
from the delta(s) of its input(s), using *fetch callbacks* for the queries
the paper describes: "to compute the Δ on the result of an operation,
queries may have to be set up on the inputs to the operation". The caller
(the maintainer/executor) decides how a fetch is answered — an indexed
lookup on a materialized view, a recursive computation over the DAG, or a
plain in-memory multiset in tests — and is charged accordingly.

This module is the only home of the delta rules; the maintainer only
fetches, probes, traces and applies. All functions are pure with respect to
their inputs; correctness is pinned by property tests asserting
``new_state == old_state + delta`` against from-scratch re-evaluation for
random update streams.
"""

from __future__ import annotations

from functools import lru_cache
from operator import eq, itemgetter
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.algebra.compile import (
    aggregate_fn,
    apply_join,
    apply_join_fetched,
    apply_join_modifies,
    apply_project,
    apply_select,
    row_mapper,
    row_predicate,
    scalar_fn,
    tuple_getter,
)
from repro.algebra.multiset import Multiset, Row
from repro.algebra.operators import (
    Difference,
    GroupAggregate,
    Join,
    Project,
    Select,
)
from repro.algebra.schema import Schema
from repro.ivm.delta import Delta

# A fetch callback: given a set of key values over fixed columns, return all
# matching rows of the *old* state of some relation, as a multiset.
Fetch = Callable[[set[tuple[Any, ...]]], Multiset]
# A bucket-grained fetch: the same query, answered as ``{key: bucket}`` in
# the probed index's shape (rows, first-key values, or one row per key).
BucketFetch = Callable[[set[tuple[Any, ...]]], dict[tuple[Any, ...], Any]]
# The two sides of a modify pair.
_old, _new = itemgetter(0), itemgetter(1)


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


def can_self_maintain_delta(expr: GroupAggregate, delta: Delta) -> bool:
    """:func:`can_self_maintain` for a concrete delta, where a group may
    lose members through deletions or modifications that move a row to
    another group. The removal test and the modified columns each take a
    pass over the delta, so each is made only when the aggregate list makes
    its answer matter."""
    funcs = {a.func for a in expr.aggregates}
    extremes = "min" in funcs or "max" in funcs
    removals = False
    if extremes or "count" not in funcs:
        group_of = _group_getter(expr)
        removals = bool(delta.deletes) or any(
            group_of(old) != group_of(new) for old, new in delta.modifies
        )
    modified = delta.modified_columns(expr.input.schema.names) if extremes else ()
    return can_self_maintain(expr, removals, modified)


def repair_modifications(schema: Schema, delta: Delta) -> Delta:
    """Re-pair inserts/deletes that share a candidate key into modifies.

    Propagation works on signed multisets internally; when the output schema
    has a declared key, a (delete old, insert new) pair on the same key is
    semantically a modification, and pairing it back up lets storage charge
    read-modify-write (paper nodes N3/N4). The pairing key is the schema's
    smallest candidate key (:attr:`Schema.pairing_key`)."""
    if not schema.keys or (not delta.inserts and not delta.deletes):
        return delta
    return delta.pair_modifications(schema.pairing_key)


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


def propagate_project(
    expr: Project, delta: Delta, fetch_old: Callable[[set[Row]], Multiset] | None = None
) -> Delta:
    """π maps deltas row-wise. DISTINCT detects 0↔1 transitions of the
    projected counts: ``fetch_old(touched)`` returns (at least) the old
    input rows whose projection is one of the ``touched`` projected rows."""
    if expr.dedup:
        if fetch_old is None:
            raise PropagationError("dedup projection requires a fetch of the old input")
        plain = Project(expr.input, expr.outputs, dedup=False)
        inner = propagate_project(plain, delta)
        touched = set(inner.net().rows())
        for old, new in inner.modifies:
            touched.add(old)
            touched.add(new)
        old_counts = apply_project(plain, fetch_old(touched))
        return repair_modifications(expr.schema, _dedup_from_counts(old_counts, inner))
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
    right_buckets: BucketFetch | None = None,
    right_shape: str = "buckets",
    right_rows: Mapping[tuple, Row] | None = None,
) -> Delta:
    """Δ(L ⋈ R) = ΔL ⋈ R_old  +  L_new ⋈ ΔR   (counting form).

    ``fetch_left`` / ``fetch_right`` answer semijoin queries on the old
    states (the paper's Q2Re/Q5Ld-style queries), keyed by the join columns.
    A fetch is only invoked when the corresponding side has a delta, so an
    unaffected side never requires one. ``right_buckets``, when given,
    answers the right side's query bucket-grained (an indexed base relation
    or materialized view hashed on exactly the join key), in the index's
    ``right_shape``: ``"buckets"`` of rows, ``"refs"`` of first-key values
    resolved through ``right_rows``, or ``"keyed"``, one row per key. It is
    used instead of ``fetch_right``: the join then probes the index's own
    hash layout rather than re-building one.
    The two charge the same page I/O unless the caller's ``fetch_right`` is
    memoized, as the maintainer's commit cache is; the bucketed fetch
    bypasses that memo (docs/cost_model.md).

    A delta of key-preserving modifies on one input passes through as pairs
    (:func:`_propagate_join_modifies`); everything else is joined as a
    signed multiset and re-paired on the output key.

    Where the checks run: a delta carrying the maintainer's contract (its
    ``_contract``, set on the compiled backend on a clean base delta that
    storage checked before propagation, and passed on by this rule) is trusted
    when the contract lets change none of the join columns and none of the
    output's pairing key; the rule then skips its per-pair tests. Any other
    delta, and every delta on the interpreted oracle, is tested pair by
    pair.
    """
    fetches = fetch_left, fetch_right, right_buckets, right_shape, right_rows
    out = _propagate_join_modifies(expr, left_delta, right_delta, *fetches)
    if out is not None:
        return out
    return _propagate_join_net(expr, left_delta, right_delta, *fetches)


def _propagate_join_net(
    expr: Join,
    left_delta: Delta | None,
    right_delta: Delta | None,
    fetch_left: Fetch | None,
    fetch_right: Fetch | None,
    right_buckets: BucketFetch | None,
    right_shape: str,
    right_rows: Mapping[tuple, Row] | None,
) -> Delta:
    """The general join rule: both deltas as signed multisets, the output
    split into inserts and deletes and re-paired on its pairing key."""
    left_net = left_delta.net() if left_delta is not None else Multiset()
    right_net = right_delta.net() if right_delta is not None else Multiset()
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

    out_net = Multiset()
    if left_net:
        if fetch_right is None:
            raise PropagationError("left delta requires a fetch on the right input")
        keys = key_set(left_net, left_idx)
        if right_buckets is not None:
            buckets = right_buckets(keys)
            out_net = apply_join_fetched(expr, left_net, buckets, right_shape, right_rows)
        else:
            out_net = apply_join(expr, left_net, fetch_right(keys))
    if right_net:
        if fetch_left is None:
            raise PropagationError("right delta requires a fetch on the left input")
        keys = key_set(right_net, [right_schema.index_of(c) for c in shared])
        # L_new = L_old + ΔL restricted to the touched keys.
        left_key = tuple_getter(left_idx)
        left_new = fetch_left(keys).copy()
        for row, count in left_net.items():
            if left_key(row) in keys:
                left_new.add(row, count)
        right_part = apply_join(expr, left_new, right_net)
        if not left_net:
            out_net = right_part
        else:
            out_net.update(right_part)
    return repair_modifications(expr.schema, Delta.from_net(out_net))


# Maps many rows to key tuples (one tuple per row, in row order).
_Keys = Callable[[Iterable[Row]], Iterable[tuple]]


def _keys_of(positions: Sequence[int]) -> _Keys:
    """``rows -> (row[i] for i in positions) per row`` with no Python call
    per row (a one-column key still comes out as 1-tuples)."""
    if len(positions) == 1:
        value = itemgetter(positions[0])
        return lambda rows: zip(map(value, rows))
    values = itemgetter(*positions)
    return lambda rows: map(values, rows)


@lru_cache(maxsize=1024)
def _modify_rule(expr: Join, from_left: bool) -> tuple[_Keys, _Keys | None] | None:
    """The static half of the join's modify rule for a delta on one input:
    ``None`` when it never applies (a residual predicate, or an output with
    no declared key), else ``(join_keys, kept)``. ``join_keys`` reads input
    rows' join columns; ``kept`` is ``None`` when the output's pairing key
    lies wholly in the other input — a pair keeping its join columns then
    keeps the output key too — and otherwise reads the join columns plus
    the pairing key's columns found only in this input."""
    if expr.residual.conjuncts() or not expr.schema.keys:
        return None
    names = expr.schema.names
    own, other = (expr.left, expr.right) if from_left else (expr.right, expr.left)
    shared = expr.join_columns
    join_keys = _keys_of([own.schema.index_of(c) for c in shared])
    extra = [names[i] for i in expr.schema.pairing_key if names[i] not in other.schema.names]
    if not extra:
        return join_keys, None
    return join_keys, _keys_of([own.schema.index_of(c) for c in (*shared, *extra)])


@lru_cache(maxsize=1024)
def _trusts(expr: Join, changes: frozenset[str]) -> bool:
    """Whether modify pairs on either input that change only ``changes`` —
    and keep the contract that says so — pass :func:`_kept_pair_keys`'s
    tests whatever their values: ``changes`` holds none of the join columns
    and none of the output's pairing key. Decided once per (join,
    contract), not per pair or per commit."""
    names = expr.schema.names
    return changes.isdisjoint(expr.join_columns) and changes.isdisjoint(
        names[i] for i in expr.schema.pairing_key
    )


def _kept_pair_keys(
    rule: tuple[_Keys, _Keys | None],
    pairs: Sequence[tuple[Row, Row]],
    trusted: bool = False,
) -> set[tuple[Any, ...]] | None:
    """The join keys to fetch for ``pairs`` when each pair keeps the join
    columns and the output's pairing key, none is a no-op, and no two share
    a kept key (so no row is on both sides and nothing cancels); else
    ``None``. Under valid key facts distinct rows never share a kept key,
    so that test only turns away deltas that chain or repeat rows.

    ``trusted`` pairs (:func:`_trusts`) are known to pass all three tests:
    their contract was checked once, at the base, so only the fetch key
    set is built. On the interpreted oracle nothing is trusted."""
    join_keys, kept = rule
    if trusted:
        return set(join_keys(map(_old, pairs)))
    # itemgetter maps, not zip(*pairs): that builds an iterator per pair.
    olds, news = list(map(_old, pairs)), list(map(_new, pairs))
    if any(map(eq, olds, news)):
        return None
    check = join_keys if kept is None else kept
    kos = list(check(olds))
    if kos != list(check(news)):
        return None
    distinct = set(kos)
    if len(distinct) < len(kos):
        return None
    return distinct if kept is None else set(join_keys(olds))


def _propagate_join_modifies(
    expr: Join,
    left_delta: Delta | None,
    right_delta: Delta | None,
    fetch_left: Fetch | None,
    fetch_right: Fetch | None,
    right_buckets: BucketFetch | None,
    right_shape: str,
    right_rows: Mapping[tuple, Row] | None,
) -> Delta | None:
    """The join's modify rule: when only one input changes, and only by
    modifies that keep the join columns and the output's pairing key, each
    pair ``(old, new)`` becomes ``(old ⋈ r, new ⋈ r)`` for every matching
    ``r`` — the pairs the signed-multiset rule would re-pair, without the
    round trip. The fetch and its keys are the general rule's. ``None``
    when the rule does not apply."""
    left_live = left_delta is not None and not left_delta.is_empty
    right_live = right_delta is not None and not right_delta.is_empty
    if left_live == right_live:
        return None
    delta = left_delta if left_live else right_delta
    assert delta is not None
    if delta.inserts or delta.deletes:
        return None
    rule = _modify_rule(expr, left_live)
    if rule is None:
        return None
    changes = delta._contract
    trusted = changes is not None and _trusts(expr, changes)
    keys = _kept_pair_keys(rule, delta.modifies, trusted)
    if keys is None:
        return None
    if not left_live:
        if fetch_left is None:
            raise PropagationError("right delta requires a fetch on the left input")
        pairs = apply_join_modifies(expr, delta.modifies, fetch_left(keys), False)
    elif fetch_right is None:
        raise PropagationError("left delta requires a fetch on the right input")
    elif right_buckets is not None:
        buckets = right_buckets(keys)
        pairs = apply_join_modifies(
            expr, delta.modifies, buckets, True, right_shape, right_rows
        )
    else:
        pairs = apply_join_modifies(expr, delta.modifies, fetch_right(keys), True)
    out = Delta(modifies=pairs)
    if trusted:  # each output pair changes what its input pair changed
        out._contract = changes
    return out


# -- aggregation ------------------------------------------------------------------------


def _group_getter(expr: GroupAggregate) -> Callable[[Row], tuple[Any, ...]]:
    in_schema = expr.input.schema
    return tuple_getter([in_schema.index_of(g) for g in expr.group_by])


def affected_group_keys(expr: GroupAggregate, delta: Delta) -> set[tuple[Any, ...]]:
    """The distinct group keys touched by an input delta."""
    group_of = _group_getter(expr)
    keys: set[tuple[Any, ...]] = set()
    for source in (delta.inserts.rows(), delta.deletes.rows()):
        for row in source:
            keys.add(group_of(row))
    for old, new in delta.modifies:
        keys.add(group_of(old))
        keys.add(group_of(new))
    return keys


def _partition(
    expr: GroupAggregate, ms: Multiset, keys: set[tuple[Any, ...]]
) -> dict[tuple[Any, ...], list[tuple[Row, int]]]:
    """The ``(row, count)`` members of each group in ``keys``, in ``ms``'s
    iteration order (so per-group sums add up in a fixed order)."""
    group_of = _group_getter(expr)
    groups: dict[tuple[Any, ...], list[tuple[Row, int]]] = {}
    for row, count in ms.items():
        key = group_of(row)
        if key in keys:
            groups.setdefault(key, []).append((row, count))
    return groups


def _emit(changes: Iterable[tuple[Row | None, Row | None]]) -> Delta:
    """The output delta of per-group ``(old_row, new_row)`` pairs, ``None``
    meaning the group is absent. Each group yields at most one change, so
    no insert/delete pair shares the output key (the grouping columns) and
    there is nothing to re-pair."""
    out = Delta()
    for old_row, new_row in changes:
        if old_row is not None and new_row is not None:
            if old_row != new_row:
                out.modifies.append((old_row, new_row))
        elif old_row is not None:
            out.deletes.add(old_row, 1)
        elif new_row is not None:
            out.inserts.add(new_row, 1)
    return out


def propagate_aggregate_recompute(
    expr: GroupAggregate, delta: Delta, fetch_group: Fetch
) -> Delta:
    """γ by re-computation: fetch each affected group's old input rows (the
    paper's Q4e-style query), compute old and new aggregate rows."""
    keys = affected_group_keys(expr, delta)
    if not keys:
        return Delta()
    return _aggregate_delta_from_states(expr, fetch_group(keys), delta, keys)


def propagate_aggregate_full_groups(expr: GroupAggregate, delta: Delta) -> Delta:
    """γ when the delta *covers whole groups* (delta-completeness, the
    paper's key-based Q3d elimination): every affected group's old content
    is exactly the delta's deleted side, so no input query is needed."""
    keys = affected_group_keys(expr, delta)
    if not keys:
        return Delta()
    return _aggregate_delta_from_states(expr, delta.all_deleted(), delta, keys)


def _aggregate_delta_from_states(
    expr: GroupAggregate,
    old_rows: Multiset,
    delta: Delta,
    keys: set[tuple[Any, ...]],
) -> Delta:
    agg_fns = [aggregate_fn(spec, expr.input.schema.names) for spec in expr.aggregates]
    old_by_group = _partition(expr, old_rows, keys)
    new_rows = old_rows.copy()
    new_rows.update(delta.net())
    if not new_rows.is_nonnegative():
        raise PropagationError("aggregate input would have negative counts")
    new_by_group = _partition(expr, new_rows, keys)

    def aggregate(key: tuple[Any, ...], members: list | None) -> Row | None:
        return key + tuple(fn(members) for fn in agg_fns) if members else None

    return _emit(
        (aggregate(key, old_by_group.get(key)), aggregate(key, new_by_group.get(key)))
        for key in keys
    )


def propagate_aggregate_self(
    expr: GroupAggregate, delta: Delta, fetch_old: Fetch
) -> Delta:
    """γ by self-maintenance — the paper's read-modify-write of N3: each
    affected group's new row is its old *view* row plus the delta's
    contribution, so the input is never queried. ``fetch_old(group_keys)``
    returns the view's old rows for those groups (rows of other groups
    sharing an index bucket may ride along).

    Preconditions are :func:`can_self_maintain`'s: when a group may lose
    members (or AVG is present) the view has an explicit COUNT, used to
    reconstruct running sums and to detect emptied groups. Without a COUNT
    no group shrinks, so SUMs update in place and groups never disappear;
    MIN/MAX only grow, so their candidates come from the inserted side.
    """
    keys = affected_group_keys(expr, delta)
    if not keys:
        return Delta()
    n_group = len(expr.group_by)
    old_by_group = {}
    for row in fetch_old(keys).rows():
        if row[:n_group] in keys:
            old_by_group[row[:n_group]] = row
    aggs = expr.aggregates
    names = expr.input.schema.names
    arg_fns = [scalar_fn(a.arg, names) if a.arg is not None else None for a in aggs]
    summed = [fn is not None and a.func not in ("min", "max") for a, fn in zip(aggs, arg_fns)]
    net_by_group = _partition(expr, delta.net(), keys)
    grown_by_group = (
        _partition(expr, delta.all_inserted(), keys)
        if any(a.func in ("min", "max") for a in aggs)
        else {}
    )
    count_pos = next((n_group + i for i, a in enumerate(aggs) if a.func == "count"), None)
    changes = []
    for key in sorted(keys, key=repr):
        old_row = old_by_group.get(key)
        members = net_by_group.get(key, ())
        d_count = sum(count for _, count in members)
        d_sums = []
        for fn, is_summed in zip(arg_fns, summed):
            total = 0
            if is_summed:
                for row, count in members:
                    total += fn(row) * count
            d_sums.append(total)
        old_gcount = new_gcount = None
        if count_pos is not None:
            old_gcount = old_row[count_pos] if old_row is not None else 0
            new_gcount = old_gcount + d_count
            if new_gcount < 0:
                raise PropagationError(f"group count underflow for {key}")
        new_aggs = []
        for idx, spec in enumerate(aggs):
            old_val = old_row[n_group + idx] if old_row is not None else 0
            if spec.func == "count":
                new_aggs.append(old_val + d_count)
            elif spec.func == "sum":
                new_aggs.append(old_val + d_sums[idx])
            elif spec.func == "avg":
                old_sum = old_val * old_gcount if old_row is not None else 0.0
                new_sum = old_sum + d_sums[idx]
                new_aggs.append(new_sum / new_gcount if new_gcount else 0.0)
            else:
                pick = min if spec.func == "min" else max
                best = None
                for row, _ in grown_by_group.get(key, ()):
                    value = arg_fns[idx](row)
                    best = value if best is None else pick(best, value)
                if old_row is None:
                    new_aggs.append(best)
                else:
                    new_aggs.append(old_val if best is None else pick(old_val, best))
        new_row = key + tuple(new_aggs)
        if old_row is None and not (d_count > 0 or any(d_sums)):
            new_row = None
        elif old_row is not None and new_gcount == 0:
            new_row = None
        changes.append((old_row, new_row))
    return _emit(changes)


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
