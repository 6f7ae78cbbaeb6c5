"""The durable store: the write-ahead log is the whole durable copy.

Opt-in (``Database(durable_path=...)``): the in-memory
:class:`~repro.storage.relation.StoredRelation` stays the oracle for
queries and for the paper's Section 3.6 accounting — nothing in this module
ever touches :class:`~repro.storage.pager.IOCounter`. The store keeps no
second copy of the data and no transaction state: the engine hands each
commit's undo journal — the counting-algorithm deltas the maintainer
applied, base relations and views, in application order — to
:meth:`DurableStore.commit` once its assertion check has passed, and a
checkpoint snapshots the live relations straight from memory. A
transaction the engine rolls back never reaches the store, so a rejected
commit writes nothing. Writes made around the engine (a bare
``apply_delta``) are not logged. Its own traffic is reported through
:class:`~repro.storage.pager.PagerStats`.

Commit protocol (write-ahead rule)::

    begin record → one delta record per relation → commit record
      → WAL barrier                       # the commit point
      → automatic checkpoint, every checkpoint_every commits

A commit raises only *before* its barrier, while the log does not yet
hold the transaction, so the caller's undo-log rollback agrees with
recovery. After the barrier only the automatic checkpoint runs, and an
``OSError`` from it is absorbed — logged as ``durable.checkpoint_failed``,
kept in :attr:`DurableStore.checkpoint_error`, retried at the next
interval — because raising would roll back a transaction the log already
holds. The in-memory :meth:`StoredRelation.apply_delta` has rejected every
delta the log could not replay (absent rows, negative multiplicities)
before it was journaled.

The barrier strength is ``wal_sync`` (after SQLite's synchronous pragma):
``"full"`` fsyncs every commit; ``"normal"`` (the default) flushes to
the OS per commit and fsyncs at checkpoints and close — a process crash
loses nothing, an OS crash can lose recent commits but never tears one.

**Checkpoint** (:meth:`DurableStore.checkpoint`): :meth:`WriteAheadLog.
rotate` cuts the log down to a ``checkpoint`` header (generation, every
relation's schema and indexes) followed by ``rows`` records streamed in
bounded chunks from the relations :meth:`DurableStore.attach` handed over
— no copy of a relation is ever built. The log is bounded by history
since the last checkpoint.

**Recovery** (:class:`DurableStore` ``__init__``) replays the log: a
checkpoint header resets the state and its ``rows`` chunks seed it; every
later *committed* transaction folds in (a ``begin`` without ``commit`` is
discarded), all of its deltas or none. A committed delta that cannot be
applied is skipped into ``recovery_errors``, never allowed to fail every
open. Records of any other kind (the ``undo`` / ``abort`` rollback trail
older logs hold) are skipped. Recovery writes only to truncate a torn tail
and to delete a stale rotation sidecar, so running it twice is a
byte-identical no-op.

Degradations are logged on the ``repro.storage.durable`` logger under
stable event names: ``durable.torn_tail``, ``durable.recovery_skip`` and
``durable.checkpoint_failed``.

Crash points: every WAL/checkpoint boundary calls ``crash_hook(point)``
(``None``, the default, means no hook). Tests inject in-process crashes by
raising :class:`CrashPoint` (after :meth:`DurableStore.freeze`, so
post-"death" cleanup code cannot touch the files), or kill the process
there with ``os._exit(CRASH_EXIT_CODE)`` — a real mid-commit death.
"""

from __future__ import annotations

import logging
import os
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

from repro.algebra.multiset import Multiset
from repro.algebra.schema import Schema
from repro.algebra.types import DataType
from repro.ivm.delta import Delta
from repro.obs.trace import NULL_TRACER
from repro.storage.pager import PagerStats
from repro.storage.wal import WalError, WriteAheadLog, decode_delta, encode_delta

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.storage.relation import StoredRelation

_log = logging.getLogger("repro.storage.durable")

DEFAULT_CHECKPOINT_EVERY = 128
#: rows per checkpoint ``rows`` record — bounds the memory a snapshot holds
CHECKPOINT_CHUNK_ROWS = 1024
#: WAL sync modes, after SQLite's synchronous pragma: "full" fsyncs every
#: commit (no committed transaction is ever lost); "normal" (the default)
#: flushes every commit to the OS and fsyncs only at checkpoints and
#: close — a process crash loses nothing, an OS/power crash can lose the
#: tail of *recent* commits but never tears one (frame CRCs make a
#: half-written record equal to its absence).
WAL_SYNC_MODES = ("normal", "full")

#: exit status of a crash hook that kills the process at its crash point
CRASH_EXIT_CODE = 137

#: every injectable crash boundary, in commit/checkpoint order
CRASH_POINTS = (
    "commit.wal",  # before any WAL append for this commit
    "commit.wal_commit",  # deltas appended, commit record not yet
    "commit.sync",  # commit record appended but not yet behind the barrier
    "commit.done",  # after the barrier: the transaction is committed
    "checkpoint.begin",  # before the snapshot sidecar is written
    "checkpoint.record",  # sidecar synced, not yet swapped in for the log
    "checkpoint.cleanup",  # snapshot swapped in, bookkeeping not yet done
)


class CrashPoint(RuntimeError):
    """Raised by in-process crash injection at a named boundary."""


def _event(level: int, event: str, **fields: Any) -> None:
    """Log one degradation under its stable event name."""
    detail = " ".join(f"{key}={value!r}" for key, value in fields.items())
    _log.log(level, "%s %s", event, detail, extra={"event": event, **fields})


def _schema_meta(schema: Schema) -> dict[str, Any]:
    return {
        "cols": [[c.name, c.dtype.value] for c in schema.columns],
        "keys": sorted(sorted(k) for k in schema.keys),
    }


def _schema_from_meta(meta: dict[str, Any]) -> Schema:
    return Schema.of(
        *((name, DataType(value)) for name, value in meta["cols"]),
        keys=meta["keys"],
    )


#: one recovered relation: schema metadata, index column lists, contents
_Recovered = tuple[dict[str, Any], list[list[str]], Multiset]


def _fold(state: dict[str, _Recovered], deltas: list[tuple[str, Delta]]) -> None:
    """Apply one committed transaction's deltas to recovered contents —
    all of them or, if any cannot apply, none."""
    net: dict[str, Multiset] = {}
    for rel, delta in deltas:
        if rel not in state:
            raise WalError(f"delta against unknown relation {rel!r}")
        net.setdefault(rel, Multiset()).update(delta.net())
    for rel, change in net.items():
        data = state[rel][2]
        for row, count in change.items():
            if data.count(row) + count < 0:
                raise WalError(f"negative count for {row} in {rel}")
    for rel, change in net.items():
        state[rel][2].update(change)


class DurableStore:
    """The write-ahead log behind one :class:`Database`.

    The in-memory relations are authoritative at runtime; the store's job
    is to be able to reconstruct them after a crash. All methods are
    no-ops after :meth:`freeze` (simulated death).
    """

    def __init__(
        self,
        path: str,
        checkpoint_every: int | None = None,
        crash_hook: Callable[[str], None] | None = None,
        wal_sync: str | None = None,
    ) -> None:
        self.path = path
        self.wal_sync = wal_sync if wal_sync is not None else "normal"
        if self.wal_sync not in WAL_SYNC_MODES:
            raise WalError(
                f"wal_sync must be one of {WAL_SYNC_MODES}, got {self.wal_sync!r}"
            )
        self.checkpoint_every = (
            checkpoint_every if checkpoint_every is not None else DEFAULT_CHECKPOINT_EVERY
        )
        self.crash_hook = crash_hook
        self.stats = PagerStats()
        self.last_commit_stats: dict[str, int] | None = None
        #: committed transactions recovery could not re-apply (skip-and-
        #: report: a damaged log entry must not make the store unopenable)
        self.recovery_errors: list[str] = []
        #: the last automatic checkpoint failure absorbed after a commit
        #: (``None`` once a checkpoint succeeds)
        self.checkpoint_error: OSError | None = None
        self._frozen = False
        self._closed = False

        os.makedirs(path, exist_ok=True)
        self._wal = WriteAheadLog(os.path.join(path, "wal"), self.stats)
        self._live: Mapping[str, "StoredRelation"] | None = None
        self._recovered: dict[str, _Recovered] = {}
        self._gen = 0
        self._commits = 0

        self.recovered = self._recover()

    # -- crash injection ---------------------------------------------------------

    def _crash(self, point: str) -> None:
        if self.crash_hook is not None and not self._frozen:
            self.crash_hook(point)

    def freeze(self) -> None:
        """Simulate process death: every subsequent durable op is a no-op,
        so in-process cleanup code (rollback, close) cannot touch the files
        a real crash would have left behind."""
        self._frozen = True

    # -- recovery ----------------------------------------------------------------

    def _recover(self) -> bool:
        # A crash mid-rotation can leave the sidecar the snapshot was
        # being written to; the real log is still authoritative.
        sidecar = self._wal.path + ".new"
        if os.path.exists(sidecar):
            os.remove(sidecar)
        state = self._recovered
        pending: dict[str, list[tuple[str, Delta]]] = {}
        seen = False
        for record in self._wal.replay():  # also truncates a torn tail
            seen = True
            kind = record["t"]
            if kind == "checkpoint":
                if "rels" not in record:
                    raise WalError(
                        f"{self.path} was written by the older page-store "
                        "format (a checkpoint with no relations); delete "
                        "the directory and recreate it"
                    )
                self._gen = record["gen"]
                state.clear()
                for name, meta in record["rels"].items():
                    state[name] = (meta["schema"], [list(c) for c in meta["indexes"]], Multiset())
            elif kind == "rows":
                data = state[record["rel"]][2]
                for row, count in record["rows"]:
                    data.add(tuple(row), count)
            elif kind == "create":
                state[record["rel"]] = (record["schema"], [], Multiset())
            elif kind == "drop":
                state.pop(record["rel"], None)
            elif kind == "index":
                entry = state.get(record["rel"])
                if entry is not None and record["cols"] not in entry[1]:
                    entry[1].append(record["cols"])
            elif kind == "begin":
                pending[record["txn"]] = []
            elif kind == "delta":
                pending.setdefault(record["txn"], []).append(
                    (record["rel"], decode_delta(record))
                )
            elif kind == "commit":
                try:
                    _fold(state, pending.pop(record["txn"], []))
                except WalError as exc:
                    self.recovery_errors.append(f"txn {record['txn']}: {exc}")
                    _event(
                        logging.WARNING, "durable.recovery_skip",
                        txn=record["txn"], error=str(exc),
                    )
                else:
                    self.stats.recovered_txns += 1
            # Any other kind ("undo" / "abort" from logs that journaled
            # rollback progress) carries nothing a redo replay needs.
        if self._wal.torn_bytes:
            _event(
                logging.WARNING, "durable.torn_tail",
                path=self._wal.path, bytes_dropped=self._wal.torn_bytes,
            )
        return seen

    # -- catalog (for Database restore) --------------------------------------------

    def relations(self) -> Iterator[tuple[str, Schema, list[list[str]]]]:
        """Recovered catalog: (name, schema, index column lists)."""
        for name, (meta, indexes, _) in self._recovered.items():
            yield name, _schema_from_meta(meta), indexes

    def contents(self, name: str) -> Multiset:
        """Recovered contents of one relation (until :meth:`attach`)."""
        return self._recovered[name][2]

    def attach(self, relations: Mapping[str, "StoredRelation"]) -> None:
        """Hand over the live relation map checkpoints snapshot, and drop
        the recovered contents (the relations now hold them)."""
        self._live = relations
        self._recovered = {}

    # -- DDL journal hooks ---------------------------------------------------------

    def on_create(self, name: str, schema: Schema) -> None:
        if not self._frozen:
            self._wal.append({"t": "create", "rel": name, "schema": _schema_meta(schema)})

    def on_drop(self, name: str) -> None:
        if not self._frozen:
            self._wal.append({"t": "drop", "rel": name})

    def on_index(self, name: str, cols: tuple[str, ...]) -> None:
        if not self._frozen:
            self._wal.append({"t": "index", "rel": name, "cols": list(cols)})

    # -- the commit -------------------------------------------------------------------

    def commit(
        self, txn_id: str, deltas: list[tuple[str, Delta]], tracer=None
    ) -> None:
        """Log one committed transaction — its deltas, in application
        order, as (relation name, delta) — then barrier → periodic
        checkpoint. Raises only before the barrier."""
        if self._frozen:
            return
        tracer = tracer if tracer is not None else NULL_TRACER
        before = self.stats.snapshot()
        if deltas:
            self._crash("commit.wal")
            with tracer.span("wal_append", txn=txn_id, deltas=len(deltas)):
                self._wal.append({"t": "begin", "txn": txn_id})
                for rel, delta in deltas:
                    self._wal.append(
                        {"t": "delta", "txn": txn_id, "rel": rel, **encode_delta(delta)}
                    )
                self._crash("commit.wal_commit")
                self._wal.append({"t": "commit", "txn": txn_id})
            self._crash("commit.sync")
            with tracer.span("wal_fsync", mode=self.wal_sync):
                if self.wal_sync == "full":
                    self._wal.sync()
                else:
                    # "normal": the record reaches the OS now (a process
                    # kill cannot lose it); fsync waits for the next
                    # checkpoint or close.
                    self._wal.flush()
            # -------- the commit point: nothing below may raise --------
            self._crash("commit.done")
        self._commits += 1
        if (
            self._live is not None
            and self.checkpoint_every
            and self._commits % self.checkpoint_every == 0
        ):
            try:
                self.checkpoint(tracer)
            except OSError as exc:
                # The transaction is in the log; raising would send the
                # caller's rollback against it. The previous log stays
                # whole (rotation swaps only a synced snapshot), so retry
                # at the next interval.
                self.checkpoint_error = exc
                _event(
                    logging.WARNING, "durable.checkpoint_failed",
                    error=repr(exc), commits=self._commits,
                )
        self.last_commit_stats = self.stats.since(before)

    # -- checkpoint --------------------------------------------------------------------

    def checkpoint(self, tracer=None) -> int:
        """Cut the log down to a snapshot of the attached relations.

        :meth:`WriteAheadLog.rotate` writes a ``checkpoint`` header and
        the ``rows`` chunks to a sidecar, syncs it, and only then swaps it
        in for the log — a crash anywhere before the swap leaves the
        previous log intact. Refuses when no relations are attached (an
        empty snapshot would erase the log). Returns the number of
        distinct rows written."""
        if self._frozen:
            return 0
        if self._live is None:
            raise WalError("no relations attached; refusing to snapshot over the log")
        tracer = tracer if tracer is not None else NULL_TRACER
        self._crash("checkpoint.begin")
        gen = self._gen + 1
        live = self._live
        written = 0

        def snapshot() -> Iterator[dict[str, Any]]:
            nonlocal written
            yield {
                "t": "checkpoint",
                "gen": gen,
                "rels": {
                    name: {
                        "schema": _schema_meta(rel.schema),
                        "indexes": [list(cols) for cols in rel.indexes],
                    }
                    for name, rel in live.items()
                },
            }
            for name, rel in live.items():
                chunk: list[tuple[Any, int]] = []
                for item in rel.items():
                    chunk.append(item)
                    if len(chunk) == CHECKPOINT_CHUNK_ROWS:
                        yield {"t": "rows", "rel": name, "rows": chunk}
                        written += len(chunk)
                        chunk = []
                if chunk:
                    yield {"t": "rows", "rel": name, "rows": chunk}
                    written += len(chunk)

        with tracer.span("checkpoint", gen=gen):
            self._wal.rotate(snapshot(), before_swap=lambda: self._crash("checkpoint.record"))
        self._gen = gen
        self._crash("checkpoint.cleanup")
        self.checkpoint_error = None
        self.stats.checkpoints += 1
        return written

    # -- lifecycle ---------------------------------------------------------------------

    @property
    def generation(self) -> int:
        """The live checkpoint generation (0 before the first checkpoint)."""
        return self._gen

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if not self._frozen:
            # A clean close is a durability barrier in every sync mode. A
            # frozen ("dead") store must not touch the files — a crashed
            # process cannot fsync.
            self._wal.sync()
        self._wal.close()

    def __repr__(self) -> str:
        return f"<DurableStore {self.path}: gen {self._gen}>"
