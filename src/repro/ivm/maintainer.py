"""The maintenance executor: runs update tracks against the storage engine.

This is where the paper's plans become real work: given a database, an
expression DAG, a marking (the chosen view set) and per-transaction update
tracks, the :class:`ViewMaintainer`

* materializes every marked equivalence node as a stored relation, with
  the single hash index the cost model assumes; aggregate views carry a
  hidden per-group tuple count (kept with each group's row, so it costs no
  extra I/O) that keeps SUM/COUNT/AVG self-maintainable under deletions;
* has storage check each base delta against the pre-update state before
  anything is propagated (a refused delta stops the commit there, with
  nothing charged), runs a transaction whose shape fits its declared type
  on that type's track and plans any other from the data, and on the
  compiled backend trusts what it derives from clean base deltas;
* on each transaction, computes deltas bottom-up along the track, posing
  the maintenance queries against *pre-update* state — answering each by an
  indexed lookup when the target is a base relation or materialized view,
  and by recursive evaluation over the DAG otherwise (charged through the
  storage layer, page by page);
* applies the deltas with the paper's read-modify-write accounting.

Measured page I/Os can then be compared against the analytic cost model —
the empirical half of the reproduction. ``verify()`` checks every
materialized view against from-scratch re-evaluation.
"""

from __future__ import annotations

import copy
from operator import eq, itemgetter
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.algebra.compile import (
    PlanCache,
    apply_group_aggregate,
    apply_join,
    apply_project,
    apply_select,
    default_backend,
    tuple_getter,
)
from repro.algebra.evaluate import evaluate
from repro.algebra.multiset import Multiset
from repro.algebra.operators import (
    Difference,
    GroupAggregate,
    Join,
    Project,
    RelExpr,
    Select,
    Union,
)
from repro.algebra.scalar import Col
from repro.cost.estimates import DagEstimator
from repro.cost.page_io import PageIOCostModel
from repro.core.optimizer import evaluate_view_set
from repro.core.tracks import UpdateTrack
from repro.dag.builder import ViewDag
from repro.dag.memo import Memo
from repro.dag.nodes import OperationNode
from repro.ivm.cache import CommitCache, CommitCacheStats
from repro.ivm.delta import Delta
from repro.ivm.propagate import (
    can_self_maintain_delta,
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
from repro.obs.trace import NULL_TRACER
from repro.storage.database import Database
from repro.storage.index import HashIndex
from repro.storage.relation import CheckedDelta, StoredRelation
from repro.workload.transactions import Transaction, TransactionType, UpdateSpec

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.trace import NullTracer, Tracer
    from repro.storage.undo import UndoLog


# The two sides of a modify pair.
_old, _new = itemgetter(0), itemgetter(1)


#: Most update tracks a maintainer's plan cache keeps, one per transaction
#: shape planned from the data (assigning ``maintainer.plan_cache = None``
#: turns it off).
ADHOC_PLAN_CACHE_CAPACITY = 128


class MaintenanceError(Exception):
    """Raised when the executor cannot carry out a maintenance plan."""


def group_expression(memo: Memo, gid: int) -> RelExpr:
    """Reconstruct one concrete expression tree for a group (first ops)."""
    gid = memo.find(gid)
    group = memo.group(gid)
    op = group.ops[0]
    if group.is_leaf:
        return op.template
    children = tuple(group_expression(memo, c) for c in op.child_ids)
    expr: RelExpr = op.template.with_children(children)
    if op.projection is not None:
        expr = Project(expr, tuple((n, Col(n)) for n in op.projection))
    return expr


def _fits(declared: TransactionType, updates: Mapping[str, UpdateSpec]) -> bool:
    """Whether a transaction's shape (:meth:`ViewMaintainer._shape`) fits
    its declared type: each relation it changes is declared with each kind
    of change it makes, and its modifies change declared columns only."""
    return all(
        (spec := declared.updates.get(rel)) is not None
        and (spec.inserts or not got.inserts)
        and (spec.deletes or not got.deletes)
        and (not got.modifies or spec.modifies and got.modified_columns <= spec.modified_columns)
        for rel, got in updates.items()
    )


class ViewMaintainer:
    """Materializes a view set and maintains it under transactions."""

    def __init__(
        self,
        db: Database,
        dag: ViewDag,
        marking: Iterable[int],
        txns: Iterable[TransactionType],
        tracks: Mapping[str, UpdateTrack],
        estimator: DagEstimator,
        cost_model: PageIOCostModel | None = None,
        charge_root_update: bool = False,
        commit_cache: bool | None = None,
    ) -> None:
        self.db = db
        self.memo = dag.memo
        self.dag = dag
        self.marking = frozenset(self.memo.find(g) for g in marking)
        self.txn_types = {t.name: t for t in txns}
        self.tracks = {name: dict(track) for name, track in tracks.items()}
        self.estimator = estimator
        self.cost_model = cost_model or PageIOCostModel(self.memo, estimator)
        self.charge_root_update = charge_root_update
        self._roots = frozenset(self.memo.find(r) for r in dag.roots.values())
        # Commit-scoped shared-computation caching (see repro.ivm.cache):
        # the per-commit fetch/scan memo lives only for apply()'s
        # propagation phase; the plan cache lives with the maintainer (a
        # track's validity is tied to this memo/marking/estimator).
        self._commit_cache_enabled = commit_cache is None or bool(commit_cache)
        self._commit_cache: CommitCache | None = None
        self.commit_cache_stats = CommitCacheStats()
        self.last_cache_stats: CommitCacheStats | None = None
        # Tracks planned from the data, by transaction shape. Assigning
        # None turns the cache off.
        self.plan_cache: PlanCache | None = PlanCache(ADHOC_PLAN_CACHE_CAPACITY)
        self._views: dict[int, StoredRelation] = {}
        self._agg_specs: dict[int, tuple[GroupAggregate, int]] = {}  # (template, input gid)
        self._self_maintained: set[int] = set()
        # Materialized group -> its column names, for the views whose every
        # column is a plain copy of a stored or base row (select, plain
        # projection and join all the way down): a delta derived from
        # checked base deltas has exactly typed rows there.
        self._copy_views: dict[int, frozenset[str]] = {}
        # op id -> (template, the op's implicit projection over it)
        self._implicit_projects: dict[int, tuple[RelExpr, Project]] = {}
        # A track's items -> its children-first group order. The DAG does
        # not change under a built maintainer, so an order holds for good;
        # there are at most as many entries as distinct tracks applied.
        self._orders: dict[tuple, tuple[int, ...]] = {}
        # (txn_type, track) of the most recent apply — what explain_analyze
        # renders, for declared and ad-hoc transactions alike.
        self.last_plan: tuple[TransactionType, UpdateTrack] | None = None

    # -- materialization ---------------------------------------------------------

    def view_name(self, gid: int) -> str:
        return f"_view_N{self.memo.find(gid)}"

    def materialize(self) -> None:
        """Create and fill stored relations for every marked group."""
        for gid in sorted(self.marking):
            group = self.memo.group(gid)
            if group.is_leaf:
                continue
            contents = evaluate(group_expression(self.memo, gid), self.db)
            name = self.view_name(gid)
            if name in self.db:
                self.db.drop_relation(name)
            index_cols = self.cost_model.index_columns(gid)
            self._views[gid] = self.db.create_relation(
                name,
                group.schema,
                contents.expand(),
                indexes=[sorted(index_cols)] if index_cols else (),
            )
            agg = self._aggregate_op(gid)
            if agg is not None:
                self._agg_specs[gid] = agg
            if self._copies_rows(gid, {}):
                self._copy_views[gid] = frozenset(group.schema.names)

    def _copies_rows(self, gid: int, seen: dict[int, bool]) -> bool:
        """Whether every op of group ``gid`` and of every group below it is
        a selection, a projection onto plain columns or a join, so each
        value the group holds is a copy of a stored value. A projection
        that computes a value may widen an int into a FLOAT column, which
        storage's type check then normalizes."""
        gid = self.memo.find(gid)
        if gid in seen:
            return seen[gid]
        seen[gid] = False  # cycle guard: an unresolved cycle copies nothing
        group = self.memo.group(gid)
        copies = group.is_leaf or all(
            (
                isinstance(op.template, (Select, Join))
                or isinstance(op.template, Project)
                and not op.template.dedup
                and all(isinstance(e, Col) for _, e in op.template.outputs)
            )
            and all(self._copies_rows(c, seen) for c in op.child_ids)
            for op in group.ops
        )
        seen[gid] = copies
        return copies

    def _aggregate_op(self, gid: int) -> tuple[GroupAggregate, int] | None:
        for op in self.memo.group(gid).ops:
            if isinstance(op.template, GroupAggregate) and op.projection is None:
                return op.template, self.memo.find(op.child_ids[0])
        return None

    def view_contents(self, gid: int) -> Multiset:
        """Contents of a materialized group."""
        return self._views[self.memo.find(gid)].contents()

    # -- query answering (fetches against pre-update state) -------------------------

    def fetch(self, gid: int, columns: frozenset[str], keys: set[tuple]) -> Multiset:
        """Fetch all rows of group ``gid`` matching ``keys`` on ``columns``.

        Mirrors the cost model's recursion: indexed lookups at leaves and
        materialized nodes, operator-specific decomposition elsewhere, full
        computation as a last resort. During a commit's propagation phase
        the per-commit :class:`~repro.ivm.cache.CommitCache` memoizes
        results per (group, columns): a result is kept whole and split per
        key only once a later fetch shares keys with it — every delta is
        posed against the pre-update state, so repeated probes of shared
        sub-nodes are answered from memory.
        """
        gid = self.memo.find(gid)
        if not keys:
            return Multiset()
        reduced = self.estimator.info(gid).reduce(columns)
        if reduced != frozenset(columns):
            ordered = sorted(columns)
            positions = [ordered.index(c) for c in sorted(reduced)]
            keys = {tuple(k[p] for p in positions) for k in keys}
            columns = reduced
        if not columns:
            return self._cached_scan(gid)
        columns = frozenset(columns)
        cache = self._commit_cache
        if cache is None:
            return self._fetch_keys(gid, columns, keys)
        return cache.fetch(
            gid,
            columns,
            keys,
            self.memo.group(gid).schema.names,
            lambda missing: self._fetch_keys(gid, columns, missing),
        )

    def _fetch_keys(
        self, gid: int, columns: frozenset[str], keys: set[tuple]
    ) -> Multiset:
        """The uncached fetch body: ``columns`` are already key-reduced.

        An unmaterialized group runs the plan the cost model prices
        (:meth:`~repro.cost.page_io.PageIOCostModel.lookup_cost`): a scan
        when the keys times the cheapest op's per-key cost reach the scan's
        cost, else a fetch through that op."""
        group = self.memo.group(gid)
        if group.is_leaf:
            return self._indexed_fetch(
                self.db.relation(group.base_relation), columns, keys
            )
        if gid in self.marking:
            return self._indexed_fetch(self._views[gid], columns, keys)
        model, marking = self.cost_model, self.marking
        costs = [model.per_key_cost_via(op, columns, marking) for op in group.ops]
        best = min(range(len(costs)), key=costs.__getitem__, default=None)
        if best is None or len(keys) * costs[best] >= model.scan_cost(gid, marking):
            rows = self._cached_scan(gid)
            return self._filter_by_keys(rows, group.schema.names, columns, keys)
        return self._fetch_via_op(gid, group.ops[best], columns, keys)

    def _cached_scan(self, gid: int) -> Multiset:
        """A group scan, answered once per commit when the cache is live."""
        cache = self._commit_cache
        if cache is None:
            return self._scan_group(gid)
        return cache.scan(gid, lambda: self._scan_group(gid))

    def _bucket_index(self, gid: int, columns: frozenset[str]) -> HashIndex | None:
        """The index whose ``probe_buckets`` answers group ``gid``'s key
        lookups on ``columns`` bucket-grained, or ``None`` when the group
        cannot answer them directly from one index. Only direct storage — a
        base relation or a materialized view — qualifies; key reduction or
        operator decomposition falls back to plain fetches.
        """
        gid = self.memo.find(gid)
        if not columns or self.estimator.info(gid).reduce(columns) != columns:
            return None
        group = self.memo.group(gid)
        if group.is_leaf:
            relation = self.db.relation(group.base_relation)
        elif gid in self.marking:
            relation = self._views[gid]
        else:
            return None
        cols = tuple(sorted(relation.schema.resolve(c) for c in columns))
        index = relation.index_on(cols)
        if index is None:
            index = relation.create_index(cols)
        return index

    def _indexed_fetch(
        self, relation: StoredRelation, columns: Iterable[str], keys: set[tuple]
    ) -> Multiset:
        """Charged index probes; keys are tuples over sorted(columns).

        Uses the batched ``probe_many`` — one output multiset, no per-key
        copy — with I/O charges identical to per-key ``probe`` calls.
        """
        cols = tuple(sorted(relation.schema.resolve(c) for c in columns))
        index = relation.index_on(cols)
        if index is None:
            # The paper assumes hash indices exist wherever lookups happen;
            # building one here is the executable analogue (construction is
            # uncharged, probes are charged normally).
            index = relation.create_index(cols)
        return index.probe_many(keys)

    def _scan_group(self, gid: int) -> Multiset:
        """Full contents of a group, charged as scans of the leaves it
        reads (hash joins and aggregation are memory-resident)."""
        gid = self.memo.find(gid)
        group = self.memo.group(gid)
        if group.is_leaf:
            return self.db.relation(group.base_relation).scan()
        if gid in self.marking:
            return self._views[gid].scan()
        expr = group_expression(self.memo, gid)
        for relation in sorted(expr.base_relations()):
            self.db.counter.charge_tuple_read(self.db.relation(relation).row_count)
        with self.db.counter.suspended():
            return evaluate(expr, self.db)

    def _fetch_via_op(
        self, gid: int, op: OperationNode, columns: frozenset[str], keys: set[tuple]
    ) -> Multiset:
        result = self._fetch_template(op.template, [self.memo.find(c) for c in op.child_ids], columns, keys)
        if op.projection is not None:
            result = self._project_rows(result, op.template.schema.names, op.projection)
            result = self._filter_by_keys(
                result, self.memo.group(gid).schema.names, columns, keys
            )
        return result

    def _fetch_template(
        self,
        template: RelExpr,
        children: list[int],
        columns: frozenset[str],
        keys: set[tuple],
    ) -> Multiset:
        if isinstance(template, Select):
            return apply_select(template, self.fetch(children[0], columns, keys))
        if isinstance(template, Project):
            mapping = {
                out: expr.name for out, expr in template.outputs if isinstance(expr, Col)
            }
            if not all(c in mapping for c in columns):
                raise MaintenanceError(
                    f"cannot translate fetch columns {sorted(columns)} through projection"
                )
            ordered = sorted(columns)
            mapped = [mapping[c] for c in ordered]
            mapped_sorted = sorted(mapped)
            reorder = [mapped.index(c) for c in mapped_sorted]
            child_keys = {tuple(key[i] for i in reorder) for key in keys}
            rows = self.fetch(children[0], frozenset(mapped), child_keys)
            projected = apply_project(template, rows)
            return self._filter_by_keys(projected, template.schema.names, columns, keys)
        if isinstance(template, Join):
            return self._fetch_join(template, children, columns, keys)
        if isinstance(template, GroupAggregate):
            if not columns <= set(template.group_by):
                raise MaintenanceError(
                    f"fetch columns {sorted(columns)} exceed grouping columns"
                )
            rows = self.fetch(children[0], columns, keys)
            aggregated = apply_group_aggregate(template, rows)
            return self._filter_by_keys(aggregated, template.schema.names, columns, keys)
        if isinstance(template, Union):
            out = self.fetch(children[0], columns, keys)
            out.update(self.fetch(children[1], columns, keys))
            return out
        if isinstance(template, Difference):
            left = self.fetch(children[0], columns, keys)
            right = self.fetch(children[1], columns, keys)
            return left.monus(right)
        raise MaintenanceError(f"cannot fetch through {type(template).__name__}")

    def _fetch_join(
        self,
        template: Join,
        children: list[int],
        columns: frozenset[str],
        keys: set[tuple],
    ) -> Multiset:
        jc = frozenset(template.join_columns)
        sides = (template.left, template.right)
        # Start where the model's per-side cost (start fetch plus the other
        # side's probe) is lowest; a side the columns cannot start costs inf.
        best_side, best_cost = None, float("inf")
        for i in (0, 1):
            start = columns & set(sides[i].schema.names)
            rest = columns - set(sides[i].schema.names)
            if not start or (rest and not rest <= set(sides[1 - i].schema.names)):
                continue
            cost = self.cost_model.join_side_cost(
                template, children, columns, self.marking, i
            )
            if best_side is None or cost < best_cost:
                best_cost, best_side = cost, i
        if best_side is None:
            raise MaintenanceError(
                f"fetch columns {sorted(columns)} not answerable through join"
            )
        i = best_side
        side_schema = sides[i].schema
        ordered = sorted(columns)
        start = sorted(c for c in ordered if c in side_schema)
        rest = [c for c in ordered if c not in side_schema]
        start_keys = {
            tuple(key[ordered.index(c)] for c in start) for key in keys
        }
        side_rows = self.fetch(children[i], frozenset(start), start_keys)
        probe_cols = sorted(jc | set(rest))
        if not rest:
            # Common case: the probe key is a pure projection of the fetched
            # side's rows — one compiled getter, no per-row dict building.
            getter = tuple_getter([side_schema.index_of(c) for c in probe_cols])
            probe_keys = {getter(row) for row in side_rows.rows()}
        else:
            rest_values = {
                tuple(key[ordered.index(c)] for c in rest) for key in keys
            }
            # Each probe column comes either from the fetched row (True, row
            # position) or from the residual key values (False, rest index).
            plan = [
                (True, side_schema.index_of(c)) if c in jc else (False, rest.index(c))
                for c in probe_cols
            ]
            probe_keys = {
                tuple(row[p] if from_row else rv[p] for from_row, p in plan)
                for row in side_rows.rows()
                for rv in rest_values
            }
        other_rows = self.fetch(children[1 - i], frozenset(probe_cols), probe_keys)
        left_rows = side_rows if i == 0 else other_rows
        right_rows = other_rows if i == 0 else side_rows
        joined = apply_join(template, left_rows, right_rows)
        return self._filter_by_keys(joined, template.schema.names, columns, keys)

    @staticmethod
    def _project_rows(
        rows: Multiset, from_names: tuple[str, ...], onto: tuple[str, ...]
    ) -> Multiset:
        project = tuple_getter([from_names.index(n) for n in onto])
        out = Multiset()
        for row, count in rows.items():
            out.add(project(row), count)
        return out

    @staticmethod
    def _filter_by_keys(
        rows: Multiset,
        names: tuple[str, ...],
        columns: frozenset[str],
        keys: set[tuple],
    ) -> Multiset:
        key_of = tuple_getter([names.index(c) for c in sorted(columns)])
        out = Multiset()
        for row, count in rows.items():
            if key_of(row) in keys:
                out.add(row, count)
        return out

    # -- transaction processing --------------------------------------------------------

    def choose_track(self, txn_type: TransactionType) -> UpdateTrack:
        """The cheapest update track for an (ad-hoc) transaction type: the
        optimizer's own evaluation of the current marking."""
        evaluation = evaluate_view_set(
            self.memo, self.marking, [txn_type], self.cost_model, self.estimator
        )
        return evaluation.per_txn[txn_type.name].track

    def apply_adhoc(
        self,
        txn: Transaction,
        name: str | None = None,
        undo: "UndoLog | None" = None,
        tracer: "Tracer | NullTracer | None" = None,
    ) -> dict[int, Delta]:
        """Apply a transaction planned from its data, whatever its name.

        An update spec is derived from the concrete deltas and the cheapest
        track is chosen on the fly — memoized in :attr:`plan_cache` by the
        spec's shape (:attr:`TransactionType.shape`), so a stream of
        same-shaped DML plans once — and the transaction is applied as
        :meth:`apply` applies it. The derived type is never registered;
        ``name`` (default ``__adhoc``) only labels it. Modifies that change
        no column change no view: a transaction of nothing else is only
        applied to its base relations.
        """
        return self._commit(txn, None, name or "__adhoc", undo, tracer)

    def apply(
        self,
        txn: Transaction,
        undo: "UndoLog | None" = None,
        tracer: "Tracer | NullTracer | None" = None,
    ) -> dict[int, Delta]:
        """Process one transaction: compute all view deltas against the old
        state, then apply base and view updates. Returns the view deltas.

        A transaction of a declared type whose deltas fit that type's shape
        runs the type's optimizer-chosen track. Any other — an undeclared
        name, or a relation, kind of change or modified column its type
        does not declare — is planned from the data, as :meth:`apply_adhoc`
        plans it, under the label ``txn.type_name``.

        When an :class:`~repro.storage.undo.UndoLog` is passed, every
        applied delta is journaled in application order, so the
        caller (the engine layer) can roll the whole transaction back —
        including any prefix applied before a storage error.

        ``tracer`` (default: the no-op tracer) records one "track_op" span
        per propagation step, one "fetch" span per join-side or group
        fetch, one "base_apply" per base relation and one "view_apply" per
        marked view, each carrying its scoped I/O."""
        declared = self.txn_types.get(txn.type_name)
        return self._commit(txn, declared, txn.type_name, undo, tracer)

    def _commit(
        self,
        txn: Transaction,
        declared: TransactionType | None,
        name: str,
        undo: "UndoLog | None",
        tracer: "Tracer | NullTracer | None",
    ) -> dict[int, Delta]:
        """Validate, plan, propagate, write. Storage checks each base delta
        against the pre-update state first, so a delta it refuses raises
        before anything is propagated, charged or changed; what it checked
        is applied after propagation without a second check."""
        tracer = tracer if tracer is not None else NULL_TRACER
        checked = {rel: self.db.relation(rel).check_delta(d) for rel, d in txn.deltas.items()}
        updates, base = self._shape(txn.deltas, checked)
        if not updates:
            self._apply_base(base, checked, undo, tracer)
            return {}
        if declared is not None and _fits(declared, updates):
            txn_type, track = declared, self.tracks.get(name, {})
        else:  # planned from the data, once per shape through the plan cache
            txn_type, cache = TransactionType(name, updates), self.plan_cache
            if cache is None:
                track = self.choose_track(txn_type)
            else:
                track = cache.get(
                    txn_type.shape.delta_signature, lambda: self.choose_track(txn_type)
                )
        return self._apply(base, checked, txn_type, track, undo, tracer)

    def _shape(
        self, deltas: Mapping[str, Delta], checked: Mapping[str, CheckedDelta]
    ) -> tuple[dict[str, UpdateSpec], dict[str, Delta]]:
        """The one pass over what only the transaction knows: each
        relation's kinds of change and modified columns as an
        :class:`UpdateSpec` (no-op modifies drop out, empty specs are left
        out), and the deltas to propagate. A clean delta (storage typed its
        rows as given, no pair is a no-op) is a copy carrying its contract
        (``Delta._contract``): the columns its pairs change on a keyed
        relation, all columns otherwise. The client's delta is left as it
        was. On the interpreted oracle nothing carries a contract."""
        trust = default_backend() != "interpreted"
        updates: dict[str, UpdateSpec] = {}
        base: dict[str, Delta] = {}
        for rel, delta in deltas.items():
            base[rel] = delta
            if delta.is_empty:
                continue
            schema = self.db.relation(rel).schema
            modifies = delta.modifies
            modified = delta.modified_columns(schema.names)
            spec = UpdateSpec(
                inserts=float(delta.inserts.total()),
                deletes=float(delta.deletes.total()),
                modifies=float(len(modifies)) if modified else 0.0,
                modified_columns=modified,
            )
            if not spec.is_empty:
                updates[rel] = spec
            noop = any(map(eq, map(_old, modifies), map(_new, modifies)))
            if trust and checked[rel].exact and not noop:
                base[rel] = delta = copy.copy(delta)
                delta._contract = modified if schema.keys else frozenset(schema.names)
        return updates, base

    def _apply(
        self,
        base: Mapping[str, Delta],
        checked: Mapping[str, CheckedDelta],
        txn_type: TransactionType,
        track: UpdateTrack,
        undo: "UndoLog | None",
        tracer: "Tracer | NullTracer",
    ) -> dict[int, Delta]:
        self.last_plan = (txn_type, dict(track))
        self._self_maintained.clear()
        deltas: dict[int, Delta] = {}
        for rel, delta in base.items():
            if rel not in self.memo.leaf_relations:
                continue  # the relation feeds no view in this DAG
            deltas[self.memo.leaf_group_id(rel)] = delta

        # The commit cache is valid for exactly the propagation phase: every
        # delta below is computed against the pre-update state (no base or
        # view delta is applied until the loop finishes), so fetches and
        # scans are pure functions of (group, columns, keys). It is
        # discarded — unconditionally — before the apply phase begins.
        cache = CommitCache(self.db.counter) if self._commit_cache_enabled else None
        self._commit_cache = cache
        try:
            self._run_ops(track, self._track_order(track), deltas, txn_type, tracer)
        finally:
            self._commit_cache = None
            if cache is not None:
                self.commit_cache_stats.fold(cache.stats)
                self.last_cache_stats = cache.stats

        self._apply_base(base, checked, undo, tracer)
        # A view of plain copies takes its derived delta unchecked when the
        # base deltas were clean: every row is a copy of a checked one.
        clean = all(d._contract is not None for d in base.values() if not d.is_empty)
        for gid in sorted(self.marking):
            delta = deltas.get(gid)
            if delta is None or delta.is_empty:
                continue
            with tracer.span("view_apply", node=gid):
                delta._contract = self._copy_views.get(gid) if clean else None
                self._apply_view_delta(gid, delta, undo)
                delta._contract = None
        return {g: d for g, d in deltas.items() if g in self.marking}

    def _apply_base(
        self,
        base: Mapping[str, Delta],
        checked: Mapping[str, CheckedDelta],
        undo: "UndoLog | None",
        tracer: "Tracer | NullTracer",
    ) -> None:
        """Apply the base deltas from what storage checked before
        propagation. They are the transaction itself: never charged."""
        for rel, delta in base.items():
            relation = self.db.relation(rel)
            with tracer.span("base_apply", relation=rel), self.db.counter.suspended():
                relation.apply_checked(checked[rel])
            if undo is not None:
                undo.record(relation, delta)

    def _track_order(self, track: UpdateTrack) -> tuple[int, ...]:
        """:meth:`_topological`, computed once per distinct track."""
        items = tuple(track.items())
        order = self._orders.get(items)
        if order is None:
            order = self._orders[items] = tuple(self._topological(track))
        return order

    def _topological(self, track: UpdateTrack) -> list[int]:
        """Children-first order of a track's groups.

        Iterative DFS with an explicit stack — a deep track (a long join
        spine) must not be limited by the interpreter's recursion limit.
        Visits nodes in the same order as the natural recursive version:
        roots in sorted order, children in ``child_ids`` order.
        """
        order: list[int] = []
        seen: set[int] = set()
        for root in sorted(track):
            if root in seen:
                continue
            seen.add(root)
            stack = [(root, iter(track[root].child_ids))]
            while stack:
                gid, children = stack[-1]
                descended = False
                for cid in children:
                    cid = self.memo.find(cid)
                    if cid in seen or cid not in track:
                        continue
                    seen.add(cid)
                    stack.append((cid, iter(track[cid].child_ids)))
                    descended = True
                    break
                if not descended:
                    order.append(gid)
                    stack.pop()
        return order

    def _run_ops(
        self,
        track: UpdateTrack,
        order: Iterable[int],
        deltas: dict[int, Delta],
        txn_type: TransactionType,
        tracer: "Tracer | NullTracer",
    ) -> None:
        """The propagation loop proper: one ``track_op`` span per step."""
        for gid in order:
            op = track[gid]
            with tracer.span("track_op", node=gid, op=op.id):
                deltas[gid] = self._propagate_op(gid, op, deltas, txn_type, tracer)

    def _propagate_op(
        self,
        gid: int,
        op: OperationNode,
        deltas: Mapping[int, Delta],
        txn_type: TransactionType,
        tracer: "Tracer | NullTracer" = NULL_TRACER,
    ) -> Delta:
        template = op.template
        children = [self.memo.find(c) for c in op.child_ids]
        child_deltas = [deltas.get(c) for c in children]
        result = self._propagate_template(
            gid, template, children, child_deltas, txn_type, tracer
        )
        if op.projection is not None:
            result = propagate_project(self._implicit_project(op), result)
            result = repair_modifications(self.memo.group(gid).schema, result)
        return result

    def _implicit_project(self, op: OperationNode) -> Project:
        """The op's implicit projection as a :class:`Project`, built once per
        template (DAG normalization may swap an op's template)."""
        cached = self._implicit_projects.get(op.id)
        if cached is None or cached[0] is not op.template:
            project = Project(op.template, tuple((n, Col(n)) for n in op.projection))
            cached = self._implicit_projects[op.id] = (op.template, project)
        return cached[1]

    def _propagate_template(
        self,
        gid: int,
        template: RelExpr,
        children: list[int],
        child_deltas: list[Delta | None],
        txn_type: TransactionType,
        tracer: "Tracer | NullTracer" = NULL_TRACER,
    ) -> Delta:
        if isinstance(template, Select):
            return propagate_select(template, child_deltas[0] or Delta())
        if isinstance(template, Project):
            fetch_old = self._dedup_project_fetch(template, children[0]) if template.dedup else None
            return propagate_project(template, child_deltas[0] or Delta(), fetch_old)
        if isinstance(template, Join):
            jc = frozenset(template.join_columns)
            index = self._bucket_index(children[1], jc)
            return propagate_join(
                template,
                child_deltas[0],
                child_deltas[1],
                self._traced(tracer, "L", lambda keys: self.fetch(children[0], jc, keys)),
                self._traced(tracer, "R", lambda keys: self.fetch(children[1], jc, keys)),
                right_buckets=(
                    self._traced(tracer, "R", index.probe_buckets, bucketed=True)
                    if index is not None
                    else None
                ),
                right_shape=index.shape if index is not None else "buckets",
                right_rows=index.rows if index is not None else None,
            )
        if isinstance(template, GroupAggregate):
            return self._propagate_aggregate(
                gid, template, children[0], child_deltas[0] or Delta(), txn_type, tracer
            )
        if isinstance(template, Union):
            return propagate_union(child_deltas[0], child_deltas[1])
        if isinstance(template, Difference):
            left = child_deltas[0] or Delta()
            right = child_deltas[1] or Delta()
            old_left = self._old_rows_for(children[0], left, extra=right)
            old_right = self._old_rows_for(children[1], right, extra=left)
            return propagate_difference(template, left, right, old_left, old_right)
        raise MaintenanceError(f"cannot propagate through {type(template).__name__}")

    def _dedup_project_fetch(self, template: Project, child: int):
        """The DISTINCT projection's old-input fetch: the child rows behind
        a set of projected rows, by key when every output is a plain
        column, else a scan of the child."""
        mapping = {out: expr.name for out, expr in template.outputs if isinstance(expr, Col)}
        if not all(out in mapping for out, _ in template.outputs):
            return lambda rows: self._cached_scan(child)
        out_names = [out for out, _ in template.outputs]
        # Each child column's value, read off one projected output that copies it.
        position = {mapping[out]: i for i, out in enumerate(out_names)}
        columns = sorted(position)
        key_of = tuple_getter([position[c] for c in columns])
        return lambda rows: self.fetch(child, frozenset(columns), {key_of(r) for r in rows})

    def _old_rows_for(self, gid: int, delta: Delta, extra: Delta | None = None) -> Multiset:
        """Old contents of the rows a delta touches (difference)."""
        schema = self.memo.group(gid).schema
        cols = self.estimator.info(gid).reduce(schema.names)
        ordered = sorted(cols)
        positions = [schema.index_of(c) for c in ordered]
        keys: set[tuple] = set()
        for source in (delta, extra) if extra is not None else (delta,):
            if source is None:
                continue
            for row in source.net().rows():
                keys.add(tuple(row[i] for i in positions))
            for old, new in source.modifies:
                keys.add(tuple(old[i] for i in positions))
                keys.add(tuple(new[i] for i in positions))
        return self.fetch(gid, frozenset(cols), keys)

    def _propagate_aggregate(
        self,
        gid: int,
        template: GroupAggregate,
        input_gid: int,
        delta: Delta,
        txn_type: TransactionType,
        tracer: "Tracer | NullTracer",
    ) -> Delta:
        """Choose the γ rule: full groups (no query), self-maintenance from
        the view's own rows (the paper's N3 read-modify-write), or
        recomputation from the affected groups' input rows."""
        # Completeness follows from keys and operators, not update sizes:
        # asking at the type's shape keeps the estimator's memo to one
        # entry per shape, not one per ad-hoc row count.
        est_delta = self.estimator.delta(input_gid, txn_type.shape)
        if est_delta is not None and est_delta.is_complete_on(template.group_by):
            return propagate_aggregate_full_groups(template, delta)
        if (
            gid in self._agg_specs
            and self.cost_model.config.self_maintenance
            and can_self_maintain_delta(template, delta)
        ):
            self._self_maintained.add(gid)
            return propagate_aggregate_self(template, delta, self._view_group_fetch(gid, template))
        reduced = self.estimator.info(input_gid).reduce(set(template.group_by))
        reduced_positions = [template.group_by.index(c) for c in sorted(reduced)]

        def fetch_group(keys: set[tuple]) -> Multiset:
            reduced_keys = {tuple(k[p] for p in reduced_positions) for k in keys}
            return self.fetch(input_gid, frozenset(reduced), reduced_keys)

        return propagate_aggregate_recompute(
            template, delta, self._traced(tracer, "input", fetch_group)
        )

    def _view_group_fetch(self, gid: int, template: GroupAggregate):
        """A materialized aggregate's old rows for a set of groups: one
        charged probe of the view's index per distinct index key."""
        index_cols = tuple(sorted(self.cost_model.index_columns(gid)))

        def fetch_old(keys: set[tuple]) -> Multiset:
            index_key = tuple_getter([template.group_by.index(c) for c in index_cols])
            return self._views[gid].lookup_many(index_cols, {index_key(k) for k in keys})

        return fetch_old

    def _traced(self, tracer: "Tracer | NullTracer", side: str, fetch, bucketed: bool = False):
        """``fetch`` under a "fetch" span carrying the probed side, the key
        count and the commit cache's hits/misses during the call."""

        def traced(keys):
            with tracer.span("fetch", side=side, keys=len(keys), bucketed=bucketed) as span:
                cache = self._commit_cache
                if cache is None:
                    return fetch(keys)
                hits, misses = cache.counts()
                result = fetch(keys)
                after = cache.counts()
                span.annotate(cache_hits=after[0] - hits, cache_misses=after[1] - misses)
                return result

        return traced

    # -- applying view deltas --------------------------------------------------------

    def _apply_view_delta(self, gid: int, delta: Delta, undo: "UndoLog | None") -> None:
        """Apply a view delta with the paper's charges. A root's write is
        free unless ``charge_root_update``. A self-maintained aggregate's
        old rows (and their index page) were probed while computing the
        delta, so only the writes are charged here, per the paper's 3-I/O
        accounting of N3 (index read + tuple read during the probe, tuple
        write here)."""
        relation, counter = self._views[gid], self.db.counter
        if not self.charge_root_update and gid in self._roots:
            with counter.suspended():
                relation.apply_delta(delta)
        elif gid in self._self_maintained:
            counter.charge_tuple_write(
                len(delta.modifies) + delta.inserts.total() + delta.deletes.total()
            )
            if delta.inserts or delta.deletes:
                touched = {
                    index.key_of(row)
                    for index in map(relation.index_on, relation.indexes)
                    for part in (delta.inserts, delta.deletes)
                    for row in part.rows()
                }
                counter.charge_index_write(len(touched))
            with counter.suspended():
                relation.apply_delta(delta)
        else:
            relation.apply_delta(delta)
        if undo is not None:
            undo.record(relation, delta)

    # -- verification ------------------------------------------------------------------

    def verify(self) -> None:
        """Assert every materialized view equals from-scratch recomputation."""
        for gid in sorted(self._views):
            expected = evaluate(group_expression(self.memo, gid), self.db)
            actual = self.view_contents(gid)
            if expected != actual:
                raise MaintenanceError(
                    f"view N{gid} diverged:\n expected {expected}\n got      {actual}"
                )
