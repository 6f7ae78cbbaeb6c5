"""The memo: equivalence classes with union-find merging and op-node dedup.

This is the "expression DAG" data structure of the paper's Section 2.1,
implemented as in rule-based optimizers (Volcano/Cascades): a table of
groups, a hash map from canonical operation-node keys to their group, and a
union-find so that when a rule proves two groups equal they merge.
"""

from __future__ import annotations

from typing import Iterator

from repro.algebra.operators import (
    Difference,
    GroupAggregate,
    Join,
    Project,
    RelExpr,
    Scan,
    Select,
    Union,
)
from repro.algebra.schema import Schema
from repro.dag.nodes import EquivalenceNode, GroupLeaf, OperationNode


class MemoError(Exception):
    """Raised for inconsistent memo operations (schema mismatches etc.)."""


def _signature(template: RelExpr) -> tuple:
    """A hashable signature of a shallow operator, excluding its children."""
    if isinstance(template, Scan):
        return ("scan", template.name)
    if isinstance(template, Select):
        return ("select", template.predicate)
    if isinstance(template, Project):
        return ("project", template.outputs, template.dedup)
    if isinstance(template, Join):
        return ("join", template.residual, template.allow_cartesian)
    if isinstance(template, GroupAggregate):
        return ("agg", template.group_by, template.aggregates)
    if isinstance(template, Union):
        return ("union",)
    if isinstance(template, Difference):
        return ("difference",)
    raise MemoError(f"unknown operator {type(template).__name__}")


def _is_commutative(template: RelExpr) -> bool:
    return isinstance(template, (Join, Union))


class Memo:
    """Groups + operation nodes with canonical-key deduplication."""

    def __init__(self) -> None:
        self._groups: dict[int, EquivalenceNode] = {}
        self._parent: dict[int, int] = {}
        self._op_map: dict[tuple, int] = {}  # op key -> group id (not canonical)
        self._leaf_groups: dict[str, int] = {}
        self._next_group = 0
        self._next_op = 0

    # -- union-find ---------------------------------------------------------------

    def find(self, group_id: int) -> int:
        root = group_id
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[group_id] != root:
            self._parent[group_id], group_id = root, self._parent[group_id]
        return root

    def group(self, group_id: int) -> EquivalenceNode:
        return self._groups[self.find(group_id)]

    def groups(self) -> list[EquivalenceNode]:
        """All live (representative) groups, in id order."""
        return [g for gid, g in sorted(self._groups.items()) if self.find(gid) == gid]

    def leaf_group_id(self, relation: str) -> int:
        return self.find(self._leaf_groups[relation])

    @property
    def leaf_relations(self) -> tuple[str, ...]:
        return tuple(sorted(self._leaf_groups))

    def ops(self) -> Iterator[OperationNode]:
        for group in self.groups():
            yield from group.ops

    # -- construction ---------------------------------------------------------------

    def _new_group(self, schema: Schema, base_relation: str | None = None) -> EquivalenceNode:
        gid = self._next_group
        self._next_group += 1
        group = EquivalenceNode(gid, schema, base_relation)
        self._groups[gid] = group
        self._parent[gid] = gid
        return group

    def insert_tree(self, expr: RelExpr) -> int:
        """Insert a full expression tree; returns its (root) group id."""
        gid, _ = self._insert(expr, target=None)
        return gid

    def insert_into(self, expr: RelExpr, target: int) -> bool:
        """Insert a (rule-produced) expression as an alternative for group
        ``target``. Returns True when the memo changed."""
        _, changed = self._insert(expr, target=self.find(target))
        return changed

    # -- internals --------------------------------------------------------------------

    def _insert(self, expr: RelExpr, target: int | None) -> tuple[int, bool]:
        if isinstance(expr, GroupLeaf):
            gid = self.find(expr.group_id)
            if target is not None and gid != target:
                # A rule asserted this existing group equals the target.
                self._merge(gid, target)
                return self.find(target), True
            return gid, False

        changed = False
        if isinstance(expr, Scan):
            if expr.name in self._leaf_groups:
                gid = self.leaf_group_id(expr.name)
            else:
                group = self._new_group(expr.schema, base_relation=expr.name)
                op = self._make_op(expr, (), group.id, projection=None)
                group.ops.append(op)
                self._op_map[self._op_key(expr, (), None)] = group.id
                self._leaf_groups[expr.name] = group.id
                gid = group.id
                changed = True
            if target is not None and gid != self.find(target):
                raise MemoError(f"cannot merge base relation {expr.name} into group {target}")
            return gid, changed

        child_ids = []
        for child in expr.children:
            cid, sub_changed = self._insert(child, target=None)
            changed = changed or sub_changed
            child_ids.append(self.find(cid))

        template = expr.with_children(
            tuple(GroupLeaf(cid, self.group(cid).schema) for cid in child_ids)
        )
        template, child_tuple = self._canonical_children(template, tuple(child_ids))

        projection: tuple[str, ...] | None = None
        if target is not None:
            projection = self._projection_onto(template.schema, self.group(target).schema)

        key = self._op_key(template, child_tuple, projection)
        existing = self._op_map.get(key)
        if existing is not None:
            gid = self.find(existing)
            if target is not None and gid != self.find(target):
                self._merge(gid, target)
                return self.find(target), True
            return gid, changed

        if target is not None:
            group = self.group(target)
        else:
            group = self._new_group(template.schema)
            changed = True
        op = self._make_op(template, child_tuple, group.id, projection)
        group.ops.append(op)
        self._op_map[key] = group.id
        return group.id, True

    def _make_op(
        self,
        template: RelExpr,
        child_ids: tuple[int, ...],
        group_id: int,
        projection: tuple[str, ...] | None,
    ) -> OperationNode:
        op = OperationNode(self._next_op, template, child_ids, group_id, projection)
        self._next_op += 1
        return op

    def _canonical_children(
        self, template: RelExpr, child_ids: tuple[int, ...]
    ) -> tuple[RelExpr, tuple[int, ...]]:
        """Sort the children of commutative operators by group id."""
        if _is_commutative(template) and len(child_ids) == 2 and child_ids[0] > child_ids[1]:
            left, right = template.children
            template = template.with_children((right, left))
            child_ids = (child_ids[1], child_ids[0])
        return template, child_ids

    def _op_key(
        self,
        template: RelExpr,
        child_ids: tuple[int, ...],
        projection: tuple[str, ...] | None,
    ) -> tuple:
        return (_signature(template), child_ids, projection)

    @staticmethod
    def _projection_onto(op_schema: Schema, group_schema: Schema) -> tuple[str, ...] | None:
        """Validate that ``op_schema`` covers the group schema; return the
        implicit projection (or None when they already match exactly)."""
        if op_schema.names == group_schema.names:
            return None
        missing = set(group_schema.names) - set(op_schema.names)
        if missing:
            raise MemoError(
                f"operation output {op_schema} does not cover group schema "
                f"{group_schema} (missing {sorted(missing)})"
            )
        for column in group_schema.columns:
            if op_schema.dtype_of(column.name) is not column.dtype:
                raise MemoError(f"type mismatch for column {column.name!r}")
        return group_schema.names

    # -- merging -------------------------------------------------------------------------

    def _merge(self, a: int, b: int) -> None:
        a, b = self.find(a), self.find(b)
        if a == b:
            return
        rep, absorbed = (a, b) if a < b else (b, a)
        rep_group, old_group = self._groups[rep], self._groups[absorbed]
        if rep_group.schema.names != old_group.schema.names:
            raise MemoError(
                f"cannot merge groups with different schemas: "
                f"{rep_group.schema} vs {old_group.schema}"
            )
        for op in old_group.ops:
            op.group_id = rep
            rep_group.ops.append(op)
        old_group.ops = []
        self._parent[absorbed] = rep
        if old_group.base_relation is not None and rep_group.base_relation is None:
            rep_group.base_relation = old_group.base_relation
        self._normalize()

    def _normalize(self) -> None:
        """Re-canonicalize op child ids after merges; cascade further merges."""
        while True:
            new_map: dict[tuple, int] = {}
            pending_merge: tuple[int, int] | None = None
            for group in self.groups():
                deduped: list[OperationNode] = []
                seen_local: set[tuple] = set()
                for op in group.ops:
                    canon_ids = tuple(self.find(c) for c in op.child_ids)
                    template = op.template.with_children(
                        tuple(GroupLeaf(c, self.group(c).schema) for c in canon_ids)
                    )
                    template, canon_ids = self._canonical_children(template, canon_ids)
                    op.template = template
                    op.child_ids = canon_ids
                    key = self._op_key(template, canon_ids, op.projection)
                    if key in seen_local:
                        continue  # duplicate within the group; drop it
                    seen_local.add(key)
                    deduped.append(op)
                    other = new_map.get(key)
                    if other is not None and self.find(other) != group.id:
                        pending_merge = (other, group.id)
                    new_map[key] = group.id
                group.ops = deduped
            self._op_map = new_map
            if pending_merge is None:
                return
            a, b = pending_merge
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            rep, absorbed = (a, b) if a < b else (b, a)
            rep_group, old_group = self._groups[rep], self._groups[absorbed]
            if rep_group.schema.names != old_group.schema.names:
                raise MemoError("cascading merge with mismatched schemas")
            for op in old_group.ops:
                op.group_id = rep
                rep_group.ops.append(op)
            old_group.ops = []
            self._parent[absorbed] = rep
            if old_group.base_relation is not None and rep_group.base_relation is None:
                rep_group.base_relation = old_group.base_relation

    # -- inspection -------------------------------------------------------------------

    def descendants(self, group_id: int) -> set[int]:
        """All group ids reachable downward from ``group_id`` (inclusive)."""
        seen: set[int] = set()
        stack = [self.find(group_id)]
        while stack:
            gid = stack.pop()
            if gid in seen:
                continue
            seen.add(gid)
            for op in self._groups[gid].ops:
                stack.extend(self.find(c) for c in op.child_ids)
        return seen

    def stats(self) -> dict[str, int]:
        groups = self.groups()
        return {
            "groups": len(groups),
            "ops": sum(len(g.ops) for g in groups),
            "leaves": len(self._leaf_groups),
        }
