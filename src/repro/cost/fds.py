"""Functional dependencies, used to reason about keys during costing.

The paper's Section 3.6 relies on facts like "DName is a key for Dept", so
that inside ``Emp ⋈ Dept`` the department name determines the budget: a
lookup by (DName, Budget) needs only a DName index, and the node needs only
a DName index for maintenance. We track FDs per equivalence node and reduce
query key sets to their minimal determining subsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


@dataclass(frozen=True)
class FDSet:
    """A set of functional dependencies (determinant → determined)."""

    fds: tuple[tuple[frozenset[str], frozenset[str]], ...] = ()
    # attrs -> reduce(attrs): the set is immutable, so each answer holds for
    # its life (a node's key lookups ask the same few column sets per commit).
    _reductions: dict[frozenset[str], frozenset[str]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @staticmethod
    def of(*pairs: tuple[Iterable[str], Iterable[str]]) -> "FDSet":
        return FDSet(tuple((frozenset(d), frozenset(r)) for d, r in pairs))

    def closure(self, attrs: Iterable[str]) -> frozenset[str]:
        """Attribute closure under the FDs."""
        result = set(attrs)
        changed = True
        while changed:
            changed = False
            for determinant, determined in self.fds:
                if determinant <= result and not determined <= result:
                    result |= determined
                    changed = True
        return frozenset(result)

    def reduce(self, attrs: Iterable[str]) -> frozenset[str]:
        """A minimal subset of ``attrs`` with the same closure.

        Greedy and deterministic: try dropping attributes in sorted order.
        Memoized per attribute set.
        """
        attrs = frozenset(attrs)
        reduced = self._reductions.get(attrs)
        if reduced is None:
            target = self.closure(attrs)
            kept = set(attrs)
            for attr in sorted(attrs):
                trial = kept - {attr}
                if self.closure(trial) >= target:
                    kept = trial
            reduced = self._reductions[attrs] = frozenset(kept)
        return reduced

    def implies(self, determinant: Iterable[str], determined: Iterable[str]) -> bool:
        return frozenset(determined) <= self.closure(determinant)

    def restrict(self, columns: Iterable[str]) -> "FDSet":
        """Project the FD set onto a column subset (simple syntactic form:
        keep FDs whose determinant survives; intersect the determined side).
        """
        columns = frozenset(columns)
        kept = []
        for determinant, determined in self.fds:
            if determinant <= columns:
                reduced = determined & columns
                if reduced - determinant:
                    kept.append((determinant, reduced))
        return FDSet(tuple(kept))

    def rename(self, mapping: dict[str, str]) -> "FDSet":
        return FDSet(
            tuple(
                (
                    frozenset(mapping.get(a, a) for a in determinant),
                    frozenset(mapping.get(a, a) for a in determined),
                )
                for determinant, determined in self.fds
            )
        )

    def union(self, other: "FDSet") -> "FDSet":
        seen = set(self.fds)
        merged = list(self.fds)
        for fd in other.fds:
            if fd not in seen:
                merged.append(fd)
                seen.add(fd)
        return FDSet(tuple(merged))

    @staticmethod
    def from_keys(keys: Iterable[Iterable[str]], all_columns: Iterable[str]) -> "FDSet":
        cols = frozenset(all_columns)
        return FDSet(tuple((frozenset(k), cols) for k in keys))
