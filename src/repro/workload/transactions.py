"""Transaction types (paper Section 3.2).

"We assume a set of transaction types T_1..T_n that can update the
database, where each transaction type defines the relations that are
updated, the kinds of updates (insertions, deletions, modifications) to the
relations, and the size of the update to each of the relations", plus a
weight f_i per type.

:class:`UpdateSpec` is the *statistical* description used by the optimizer;
concrete transactions for the execution engine are built by the generators
in :mod:`repro.workload.generators`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.ivm.delta import Delta


@dataclass(frozen=True)
class UpdateSpec:
    """Expected update sizes for one relation within a transaction type."""

    inserts: float = 0.0
    deletes: float = 0.0
    modifies: float = 0.0
    modified_columns: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.inserts < 0 or self.deletes < 0 or self.modifies < 0:
            raise ValueError("update sizes must be non-negative")
        if self.modifies and not self.modified_columns:
            raise ValueError("modifications must declare the modified columns")

    @property
    def total(self) -> float:
        return self.inserts + self.deletes + self.modifies

    @property
    def has_deletes(self) -> bool:
        return self.deletes > 0

    @property
    def is_empty(self) -> bool:
        return self.total == 0


@dataclass(frozen=True)
class TransactionType:
    """A named transaction type with per-relation update specs and weight."""

    name: str
    updates: Mapping[str, UpdateSpec]
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("transaction weight must be positive")
        cleaned = {rel: spec for rel, spec in self.updates.items() if not spec.is_empty}
        if not cleaned:
            raise ValueError(f"transaction type {self.name!r} updates nothing")
        object.__setattr__(self, "updates", cleaned)

    @property
    def updated_relations(self) -> frozenset[str]:
        return frozenset(self.updates)

    def spec(self, relation: str) -> UpdateSpec:
        return self.updates.get(relation, UpdateSpec())

    @property
    def delta_signature(self) -> tuple:
        """A canonical key for everything delta estimation depends on.

        Two types with equal signatures produce identical
        :class:`~repro.cost.estimates.DeltaStats` everywhere in the DAG —
        name and weight deliberately excluded, so memos keyed by this
        stay correct when ad-hoc names are reused with different specs.
        """
        cached = getattr(self, "_delta_signature", None)
        if cached is None:
            cached = tuple(
                (rel, spec.inserts, spec.deletes, spec.modifies,
                 tuple(sorted(spec.modified_columns)))
                for rel, spec in sorted(self.updates.items())
            )
            object.__setattr__(self, "_delta_signature", cached)
        return cached

    @property
    def shape(self) -> "TransactionType":
        """This type with every nonzero update size set to 1: the same
        relations, kinds of update and modified columns, sizes dropped.
        Estimates that depend on the shape only (delta completeness) are
        decided on it, so their memos grow with the number of shapes, not
        with every new row count an ad-hoc commit brings."""
        updates = {
            rel: UpdateSpec(
                *(float(n > 0) for n in (spec.inserts, spec.deletes, spec.modifies)),
                modified_columns=spec.modified_columns,
            )
            for rel, spec in self.updates.items()
        }
        return TransactionType(self.name, updates, self.weight)

    def __str__(self) -> str:
        return self.name


@dataclass
class Transaction:
    """A concrete transaction: per-relation deltas to apply."""

    type_name: str
    deltas: dict[str, Delta]

    @property
    def updated_relations(self) -> frozenset[str]:
        return frozenset(rel for rel, d in self.deltas.items() if not d.is_empty)


def modify_txn(
    name: str, relation: str, columns: frozenset[str] | set[str], count: float = 1.0,
    weight: float = 1.0,
) -> TransactionType:
    """Shorthand for the paper's single-relation modification transactions
    (>Emp modifies Salary of one Emp tuple; >Dept modifies Budget of one
    Dept tuple)."""
    spec = UpdateSpec(modifies=count, modified_columns=frozenset(columns))
    return TransactionType(name, {relation: spec}, weight)


def paper_transactions() -> tuple[TransactionType, TransactionType]:
    """The two Section 3.6 transaction types with equal weight."""
    return (
        modify_txn(">Emp", "Emp", {"Salary"}),
        modify_txn(">Dept", "Dept", {"Budget"}),
    )
