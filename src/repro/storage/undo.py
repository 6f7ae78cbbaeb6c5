"""Logical undo: per-transaction journals of applied deltas.

An :class:`UndoLog` journals every delta a transaction applies — base
relation updates plus all materialized-view updates — in application
order, and inverts them only if it rolls back: most transactions commit,
so :meth:`StoredRelation.apply_delta` builds no inverse. Rollback applies
each delta's inverse (:meth:`Delta.inverted`, O(|delta|)) newest first
with the I/O counter suspended: undoing work is bookkeeping, not priced
maintenance, so it never pollutes the paper's cost accounting.

An :class:`EpochLog` keeps committed inverses for snapshot readers, and
inverts a commit's journal only while a reader holds a pin.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ivm.delta import Delta
    from repro.storage.relation import StoredRelation


class UndoLog:
    """An ordered journal of (relation, applied delta) rollback entries."""

    def __init__(self) -> None:
        self._entries: list[tuple["StoredRelation", "Delta"]] = []

    def record(self, relation: "StoredRelation", delta: "Delta") -> None:
        """Journal one delta just applied to ``relation`` (in application
        order). The journal holds the delta itself, so the caller must not
        change it until the log is rolled back or cleared."""
        if not delta.is_empty:
            self._entries.append((relation, delta))

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> tuple[tuple["StoredRelation", "Delta"], ...]:
        return tuple(self._entries)

    def rollback(
        self,
        journal: "Callable[[StoredRelation, Delta], None] | None" = None,
    ) -> None:
        """Undo every journaled delta, newest first, uncharged, by applying
        its inverse.

        Each entry is *peeked*, inverted, applied, and only then popped: if
        ``apply_delta`` raises mid-rollback the failing entry (and
        everything older) stays in the log, so the rollback can be
        resumed by calling again — a pop-first loop would silently lose
        the entry it was undoing. After a complete rollback the log is
        empty; rolling back an empty log is a no-op, so the call is
        idempotent.

        ``journal`` (when given) is called with each relation and inverse
        *after* the inverse has been applied — the durable layer uses it to
        write rollback progress into the WAL.
        """
        while self._entries:
            relation, delta = self._entries[-1]
            inverse = delta.inverted()
            with relation.counter.suspended():
                relation.apply_delta(inverse)
            # Pop before journaling: the inverse is applied either way, and
            # a journal failure must not leave an entry that a resumed
            # rollback would apply a second time.
            self._entries.pop()
            if journal is not None:
                journal(relation, inverse)

    def clear(self) -> None:
        """Drop the journal without undoing (after a successful commit)."""
        self._entries.clear()


class EpochLog:
    """Bounded history of committed inverse deltas, for snapshot reads.

    Every successful commit advances the shared ``epoch``. A reader that
    wants a stable view *pins* the current epoch; from then on the
    inverses of each commit's journaled deltas (its :class:`UndoLog`) are
    retained, so the reader can reconstruct the pinned state from the live
    relations by replaying inverses newest-first down to its epoch — no
    locks held against the writer while it reads.
    Unpinning releases the history: with no pins outstanding nothing is
    retained, so single-session engines pay nothing for this machinery.

    Entries are keyed by relation *name* (deltas are logical), so a
    snapshot replay never aliases live storage objects; and each inverse is
    built when the commit is noted, so it never aliases a delta the
    committing caller still holds.
    """

    def __init__(self) -> None:
        self.epoch = 0
        self._entries: list[tuple[int, tuple[tuple[str, "Delta"], ...]]] = []
        self._pins: dict[int, int] = {}
        self._lock = threading.Lock()

    def pin(self) -> int:
        """Pin the current epoch (refcounted); returns the pinned epoch."""
        with self._lock:
            epoch = self.epoch
            self._pins[epoch] = self._pins.get(epoch, 0) + 1
            return epoch

    def unpin(self, epoch: int) -> None:
        """Release one pin; history nobody can still read is dropped."""
        with self._lock:
            left = self._pins.get(epoch, 0) - 1
            if left > 0:
                self._pins[epoch] = left
            else:
                self._pins.pop(epoch, None)
            self._trim_locked()

    def _trim_locked(self) -> None:
        if not self._pins:
            self._entries.clear()
            return
        oldest = min(self._pins)
        if self._entries and self._entries[0][0] <= oldest:
            self._entries = [e for e in self._entries if e[0] > oldest]

    def note_commit(self, undo: "UndoLog") -> int:
        """Advance the epoch for one successful commit; invert and retain
        its journaled deltas only while at least one reader holds a pin.
        Called by the engine's commit pipeline *before* the undo journal is
        discarded."""
        with self._lock:
            self.epoch += 1
            if self._pins:
                entries = tuple(
                    (relation.name, delta.inverted()) for relation, delta in undo.entries
                )
                if entries:
                    self._entries.append((self.epoch, entries))
            return self.epoch

    def inverses_since(self, epoch: int) -> list[tuple[int, tuple[tuple[str, "Delta"], ...]]]:
        """The retained (epoch, entries) pairs newer than ``epoch``, oldest
        first — replay them *reversed* (newest first, entries reversed
        within each commit) to walk current state back to ``epoch``."""
        with self._lock:
            return [e for e in self._entries if e[0] > epoch]

    @property
    def pinned(self) -> int:
        """Number of outstanding pins (over all epochs)."""
        with self._lock:
            return sum(self._pins.values())

    @property
    def retained(self) -> int:
        """Number of commits whose inverses are currently retained."""
        with self._lock:
            return len(self._entries)
