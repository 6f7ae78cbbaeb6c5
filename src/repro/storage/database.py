"""The database: a catalog of stored relations sharing one I/O counter."""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.algebra.multiset import Multiset, Row
from repro.algebra.schema import Schema
from repro.ivm.delta import Delta
from repro.storage.pager import IOCounter
from repro.storage.relation import StorageError, StoredRelation

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.storage.durable import DurableStore


class Database:
    """A named collection of :class:`StoredRelation` with shared accounting.

    Implements the evaluator's ``RelationSource`` protocol *uncharged*
    (``multiset``): full re-evaluation is the correctness oracle, not a
    priced operation. Charged access goes through the relations' ``scan``
    and their indexes' probes.

    Durability is opt-in: ``durable_path`` attaches a
    :class:`~repro.storage.durable.DurableStore` that logs each relation's
    creation and initial rows, and every engine commit, to a write-ahead
    log, and checkpoints these relations straight from memory. The
    in-memory relations stay authoritative — and the paper's
    :class:`IOCounter` accounting is untouched by the log — so a
    non-durable database behaves bit-identically with the switch off. If
    the directory holds a previous incarnation, its state is recovered
    here (log replay) and the relations are rebuilt before any caller sees
    the database.
    """

    def __init__(
        self,
        durable_path: str | None = None,
        checkpoint_every: int | None = None,
        wal_sync: str | None = None,
    ) -> None:
        self.counter = IOCounter()
        self._relations: dict[str, StoredRelation] = {}
        # Multi-session coordination: engines serialize storage mutation
        # (and snapshot copies) on this reentrant latch, and the epoch log
        # retains committed inverse deltas while readers hold epoch pins
        # (see storage/undo.py EpochLog). Both are free for the classic
        # single-session path: an uncontended RLock and an empty log.
        self.latch = threading.RLock()
        from repro.storage.undo import EpochLog

        self.epoch_log = EpochLog()
        self.durable: "DurableStore | None" = None
        if durable_path:
            from repro.storage.durable import DurableStore

            self.durable = DurableStore(
                durable_path,
                checkpoint_every=checkpoint_every,
                wal_sync=wal_sync,
            )
            self._restore(self.durable)

    def _restore(self, store: "DurableStore") -> None:
        """Rebuild in-memory relations from a recovered durable store.

        Restoring logs nothing: the catalog hook is attached only after
        each relation's recovered indexes are built. Attaching the
        relation map last lets the store drop its recovered copies."""
        for name, schema, indexes in store.relations():
            relation = StoredRelation(name, schema, self.counter)
            relation.load_multiset(store.contents(name))
            for cols in indexes:
                relation.create_index(cols)
            relation._durable = store
            self._relations[name] = relation
        store.attach(self._relations)

    @property
    def recovered(self) -> bool:
        """True when this database was rebuilt from a durable directory."""
        return self.durable is not None and self.durable.recovered

    def create_relation(
        self,
        name: str,
        schema: Schema,
        rows: Iterable[Row] = (),
        indexes: Iterable[Iterable[str]] = (),
    ) -> StoredRelation:
        if name in self._relations:
            raise StorageError(f"relation {name!r} already exists")
        relation = StoredRelation(name, schema, self.counter)
        # Build (and validate) entirely in memory first: nothing reaches
        # the WAL until the rows and indexes are known-good, so a failed
        # create cannot resurrect as a phantom empty relation on recovery.
        relation.load(rows)
        for cols in indexes:
            relation.create_index(cols)
        # Registered before logging: the initial rows' commit can run the
        # automatic checkpoint, which snapshots this map — a relation
        # missing from it would be cut out of the log.
        self._relations[name] = relation
        if self.durable is not None:
            try:
                self.durable.on_create(name, schema)
                for built in relation.indexes:
                    self.durable.on_index(name, built)
                initial = relation.contents()
                if initial:
                    self.durable.commit(f"__create_{name}", [(name, Delta(inserts=initial))])
            except BaseException:
                del self._relations[name]
                raise
            relation._durable = self.durable
        return relation

    def drop_relation(self, name: str) -> None:
        if name not in self._relations:
            raise StorageError(f"relation {name!r} does not exist")
        del self._relations[name]
        if self.durable is not None:
            self.durable.on_drop(name)

    def relation(self, name: str) -> StoredRelation:
        try:
            return self._relations[name]
        except KeyError:
            raise StorageError(f"relation {name!r} does not exist") from None

    def checkpoint(self, tracer=None) -> int:
        """Cut the durable log down to a snapshot of the relations now
        (no-op without a durable store); returns the rows written."""
        if self.durable is None:
            return 0
        with self.latch:
            return self.durable.checkpoint(tracer)

    def close(self) -> None:
        """Release durable file handles (no-op for in-memory databases)."""
        if self.durable is not None:
            self.durable.close()

    def __deepcopy__(self, memo: dict) -> "Database":
        """Deep-copy the catalog; coordination primitives (the latch and
        the epoch log, which hold OS locks) are created fresh — a copied
        database is a new single-session world, not a live participant in
        the original's commit ordering."""
        import copy as _copy

        from repro.storage.undo import EpochLog

        clone = self.__class__.__new__(self.__class__)
        memo[id(self)] = clone
        for key, value in self.__dict__.items():
            if key == "latch":
                clone.latch = threading.RLock()
            elif key == "epoch_log":
                clone.epoch_log = EpochLog()
            else:
                setattr(clone, key, _copy.deepcopy(value, memo))
        return clone

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[StoredRelation]:
        return iter(self._relations.values())

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._relations)

    # -- RelationSource protocol -----------------------------------------------------

    def multiset(self, name: str) -> Multiset:
        return self.relation(name).contents()
