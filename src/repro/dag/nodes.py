"""Expression-DAG node types: equivalence nodes and operation nodes.

Following the paper (Section 2.1): the DAG is bipartite. An *equivalence
node* (a "group" in Volcano terms) stands for a class of algebraically
equivalent expressions and owns the class's schema; it has one or more
*operation node* children, each a single operator over child equivalence
nodes. Leaves are equivalence nodes for base relations.

Two departures worth noting, both documented in DESIGN.md:

* Operation nodes may carry an **implicit projection**: their operator's
  natural output can be a superset of the group schema (e.g. the join that
  re-derives an aggregate group, paper Figure 2 node E2). The projection is
  free at run time and is part of the operation node's identity.
* Natural joins are commutative with order-canonical schemas, so the memo
  keys join operation nodes on the *unordered* set of children.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.operators import RelExpr, Scan
from repro.algebra.schema import Schema
from repro.algebra.types import hash_once


@hash_once
@dataclass(frozen=True, eq=True)
class GroupLeaf(RelExpr):
    """A placeholder leaf standing for an equivalence node.

    Rules and shallow operation-node templates use these instead of real
    subtrees; ``group_id`` is resolved through the memo's union-find.
    """

    group_id: int
    leaf_schema: Schema
    schema: Schema = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self._set_schema(self.leaf_schema)

    @property
    def children(self) -> tuple[RelExpr, ...]:
        return ()

    def with_children(self, children) -> "GroupLeaf":
        if children:
            raise ValueError("GroupLeaf has no children")
        return self

    def label(self) -> str:
        return f"[{self.group_id}]"

    def __str__(self) -> str:
        return f"[{self.group_id}]"


class OperationNode:
    """One operator over child equivalence nodes, belonging to one group.

    ``template`` is the shallow operator whose children are
    :class:`GroupLeaf` placeholders. ``projection`` lists the group-schema
    columns when the template's natural output is a superset (implicit, free
    projection); ``None`` means the output is exactly the group schema.
    """

    __slots__ = ("id", "template", "child_ids", "group_id", "projection")

    def __init__(
        self,
        op_id: int,
        template: RelExpr,
        child_ids: tuple[int, ...],
        group_id: int,
        projection: tuple[str, ...] | None,
    ) -> None:
        self.id = op_id
        self.template = template
        self.child_ids = child_ids
        self.group_id = group_id
        self.projection = projection

    @property
    def is_leaf_scan(self) -> bool:
        return isinstance(self.template, Scan)

    def label(self) -> str:
        base = self.template.label()
        if self.projection is not None:
            base += f" →π({', '.join(self.projection)})"
        return base

    def __repr__(self) -> str:
        kids = ", ".join(str(c) for c in self.child_ids)
        return f"<Op {self.id} in G{self.group_id}: {self.label()} ({kids})>"


class EquivalenceNode:
    """A class of equivalent expressions with a fixed output schema."""

    __slots__ = ("id", "schema", "ops", "base_relation")

    def __init__(self, group_id: int, schema: Schema, base_relation: str | None = None) -> None:
        self.id = group_id
        self.schema = schema
        self.ops: list[OperationNode] = []
        self.base_relation = base_relation

    @property
    def is_leaf(self) -> bool:
        """Leaf equivalence nodes correspond to base relations."""
        return self.base_relation is not None

    def label(self) -> str:
        if self.is_leaf:
            return f"{self.base_relation}"
        first = self.ops[0].label() if self.ops else "?"
        return f"G{self.id}:{first}"

    def __repr__(self) -> str:
        kind = f"leaf {self.base_relation}" if self.is_leaf else f"{len(self.ops)} ops"
        return f"<Equiv {self.id}: {kind}, schema {self.schema}>"
