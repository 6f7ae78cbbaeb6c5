"""The durable store: WAL-protected slotted pages behind the in-memory path.

Opt-in (``Database(durable_path=...)`` or ``REPRO_DURABLE``): the in-memory
:class:`~repro.storage.relation.StoredRelation` stays the oracle for
queries and for the paper's Section 3.6 accounting — nothing in this module
ever touches :class:`~repro.storage.pager.IOCounter`. The durable layer
shadows every committed change onto real fixed-size pages, with its own
traffic reported through :class:`~repro.storage.pager.PagerStats`.

Commit protocol (write-ahead rule)::

    validate deltas (size, multiplicity)  # reject-before-log
      → begin record → one delta record per relation → commit record
      → WAL barrier                       # the commit point
      → apply deltas to pages (in pool)   # redo in place, write-behind

Validation runs first because a durable commit record is replayed on
every subsequent open: a committed delta the page layer cannot apply
(an oversized record, a negative multiplicity) would make the directory
permanently unopenable, so it must reject the transaction *before* any
WAL append. Conversely, a failure *after* the barrier never raises out
of :meth:`DurableStore.commit` — the transaction is durably committed,
and raising would send the caller's undo-log rollback against the log
(memory rolled back, recovery rolling forward). Instead the store marks
itself ``failed``: later commits keep appending to the WAL but skip the
now-diverged pages, checkpoints refuse, and the next open rebuilds the
pages from the log. Recovery likewise skips (and records in
``recovery_errors``) a committed delta it cannot apply, rather than
failing every open.

The barrier strength is ``wal_sync`` (after SQLite's synchronous pragma):
``"full"`` fsyncs every commit; ``"normal"`` (default, ``REPRO_WAL_SYNC``)
flushes to the OS per commit and fsyncs at checkpoints and close — a
process crash loses nothing, an OS crash can lose recent commits but
never tears one.

Pages are only flushed by **checkpoints** (full snapshot into an immutable
``pages.<gen>`` generation file, then a ``checkpoint`` WAL record naming
the generation and carrying the catalog + page map, then the WAL rotated
down to just that record — replay starts there, so the log stays bounded
by history *since* the last checkpoint) or by **eviction**
(dirty pages spill to a scratch ``overlay`` file that is discarded on
recovery and truncated at checkpoint — the no-steal equivalent: nothing
uncommitted can ever reach the base pages, because nothing is applied to
pages before its commit record is synced).

Recovery (:class:`DurableStore` ``__init__``) is read-only over the files:
replay the WAL, find the last checkpoint record whose generation file
survives, load its pages, re-apply every *committed* transaction's deltas
after it. Running recovery twice is therefore a no-op — the only writes
are truncating a torn WAL tail and deleting orphan generations.

Crash points: every WAL/page/checkpoint boundary calls
``crash_hook(point_name)``. Tests inject in-process crashes by raising
:class:`CrashPoint` (after :meth:`DurableStore.freeze`, so post-"death"
cleanup code cannot touch the files); subprocess kills are driven by the
``REPRO_CRASH_AT=point[:nth]`` environment variable, which makes the nth
arrival at ``point`` call ``os._exit`` — a real mid-commit death.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.algebra.multiset import Multiset, Row
from repro.algebra.schema import Schema
from repro.algebra.types import DataType
from repro.ivm.delta import Delta
from repro.obs.trace import NULL_TRACER
from repro.storage.pager import (
    DEFAULT_PAGE_SIZE,
    BufferPool,
    Page,
    PageError,
    Pager,
    PagerStats,
    pack_record,
    unpack_record,
)
from repro.storage.wal import WalError, WriteAheadLog, decode_delta, encode_delta

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.storage.relation import StoredRelation

DEFAULT_POOL_SIZE = 64
DEFAULT_CHECKPOINT_EVERY = 128
#: WAL sync modes, after SQLite's synchronous pragma: "full" fsyncs every
#: commit (no committed transaction is ever lost); "normal" (the default)
#: flushes every commit to the OS and fsyncs only at checkpoints and
#: close — a process crash loses nothing, an OS/power crash can lose the
#: tail of *recent* commits but never tears one (frame CRCs make a
#: half-written record equal to its absence).
WAL_SYNC_MODES = ("normal", "full")

#: exit status used by the env-driven subprocess crash injector
CRASH_EXIT_CODE = 137

#: every injectable crash boundary, in commit/checkpoint order
CRASH_POINTS = (
    "commit.wal",  # before any WAL append for this commit
    "commit.wal_commit",  # deltas appended, commit record not yet
    "commit.sync",  # commit record appended but not fsynced
    "commit.apply",  # WAL durable, no page touched yet
    "commit.apply_mid",  # after each relation's pages are updated
    "pool.evict",  # before a dirty page spills to the overlay
    "checkpoint.begin",  # before any generation page is written
    "checkpoint.page",  # before each generation page write
    "checkpoint.record",  # pages synced, checkpoint record not yet logged
    "checkpoint.cleanup",  # record synced, old generation not yet deleted
)


class CrashPoint(RuntimeError):
    """Raised by in-process crash injection at a named boundary."""


def env_durable_path() -> str | None:
    """Resolve the ``REPRO_DURABLE`` opt-in to a directory (or ``None``).

    A bare truthy flag (``1``/``true``/``yes``/``on``) selects the default
    ``.repro-durable`` directory; any other non-empty value *is* the path.
    """
    value = os.environ.get("REPRO_DURABLE", "").strip()
    if not value:
        return None
    if value.lower() in ("1", "true", "yes", "on"):
        return ".repro-durable"
    return value


def _env_crash_hook(spec: str | None = None) -> Callable[[str], None] | None:
    """Build the ``REPRO_CRASH_AT=point[:nth]`` subprocess kill hook.

    ``spec`` overrides the environment — harnesses that must survive their
    own setup phase pop the variable, build, then arm the hook explicitly.
    """
    if spec is None:
        spec = os.environ.get("REPRO_CRASH_AT", "")
    spec = spec.strip()
    if not spec:
        return None
    point, _, nth = spec.partition(":")
    target = int(nth) if nth else 1
    seen = {"n": 0}

    def hook(name: str) -> None:
        if name == point:
            seen["n"] += 1
            if seen["n"] >= target:
                os._exit(CRASH_EXIT_CODE)  # a real mid-commit death

    return hook


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


def _net(delta: Delta) -> dict[Row, int]:
    """Net multiplicity change per row (a modify is delete-old + insert-new)."""
    net: dict[Row, int] = {}
    for row, count in delta.inserts.items():
        net[row] = net.get(row, 0) + count
    for row, count in delta.deletes.items():
        net[row] = net.get(row, 0) - count
    for old, new in delta.modifies:
        net[old] = net.get(old, 0) - 1
        net[new] = net.get(new, 0) + 1
    return net


class _RelState:
    """Durable-side state of one relation: its pages and row directory."""

    __slots__ = ("schema_meta", "indexes", "pages", "directory")

    def __init__(self, schema_meta: dict[str, Any]) -> None:
        self.schema_meta = schema_meta
        self.indexes: list[list[str]] = []
        self.pages: list[int] = []  # logical page ids, allocation order
        self.directory: dict[Row, tuple[int, int, int]] = {}  # row -> (pid, slot, count)


class DurableStore:
    """Pages + WAL + buffer pool behind one :class:`Database`.

    The store is a *shadow*: the in-memory relations are authoritative at
    runtime; the store's job is to be able to reconstruct them after a
    crash. All methods are no-ops after :meth:`freeze` (simulated death).
    """

    def __init__(
        self,
        path: str,
        page_size: int = DEFAULT_PAGE_SIZE,
        pool_size: int | None = None,
        checkpoint_every: int | None = None,
        crash_hook: Callable[[str], None] | None = None,
        wal_sync: str | None = None,
    ) -> None:
        self.path = path
        self.page_size = page_size
        self.wal_sync = (
            wal_sync
            if wal_sync is not None
            else os.environ.get("REPRO_WAL_SYNC", "normal")
        )
        if self.wal_sync not in WAL_SYNC_MODES:
            raise WalError(
                f"wal_sync must be one of {WAL_SYNC_MODES}, got {self.wal_sync!r}"
            )
        self.pool_size = pool_size if pool_size is not None else DEFAULT_POOL_SIZE
        self.checkpoint_every = (
            checkpoint_every if checkpoint_every is not None else DEFAULT_CHECKPOINT_EVERY
        )
        self.crash_hook = crash_hook if crash_hook is not None else _env_crash_hook()
        self.stats = PagerStats()
        self.last_commit_stats: dict[str, int] | None = None
        #: set to the causing exception when a post-barrier page apply
        #: failed — the pages are no longer trusted (commits keep logging,
        #: checkpoints refuse) until the directory is reopened.
        self.failed: Exception | None = None
        #: committed transactions recovery could not re-apply (skip-and-
        #: report: a damaged log entry must not make the store unopenable)
        self.recovery_errors: list[str] = []
        self._frozen = False
        self._closed = False

        os.makedirs(path, exist_ok=True)
        self._wal = WriteAheadLog(os.path.join(path, "wal"), self.stats)
        self._rels: dict[str, _RelState] = {}
        self._next_pid = 0
        self._gen = 0
        self._base_pager: Pager | None = None
        self._base_index: dict[int, int] = {}  # logical pid -> gen-file page index
        # The overlay is a scratch spill target — always start it empty.
        overlay = Pager(os.path.join(path, "overlay"), page_size, create=True, stats=self.stats)
        self._pool = BufferPool(
            self.pool_size, self.stats, self._read_base, overlay, page_size
        )
        self._pool.on_evict = lambda pid: self._crash("pool.evict")

        self._active: str | None = None
        self._buffer: list[tuple[str, Delta]] = []
        self._undo_journaled = False
        self._auto_seq = 0
        self._commits = 0

        self.recovered = self._recover()

    # -- crash injection ---------------------------------------------------------

    def _crash(self, point: str) -> None:
        if self.crash_hook is not None and not self._frozen:
            self.crash_hook(point)

    def freeze(self) -> None:
        """Simulate process death: every subsequent durable op is a no-op,
        so in-process cleanup code (rollback, abort) cannot touch the files
        a real crash would have left behind."""
        self._frozen = True

    # -- recovery ----------------------------------------------------------------

    def _gen_path(self, gen: int) -> str:
        return os.path.join(self.path, f"pages.{gen}")

    def _read_base(self, pid: int) -> Page | None:
        idx = self._base_index.get(pid)
        if idx is None or self._base_pager is None:
            return None
        return Page.from_bytes(self._base_pager.read_page(idx), self.page_size)

    def _recover(self) -> bool:
        # A crash mid-rotation can leave the sidecar the rotated log was
        # being written to; the real log is still authoritative.
        sidecar = self._wal.path + ".new"
        if os.path.exists(sidecar):
            os.remove(sidecar)
        records = list(self._wal.replay())  # also truncates a torn tail
        start = 0
        for i in range(len(records) - 1, -1, -1):
            record = records[i]
            if record["t"] == "checkpoint" and os.path.exists(
                self._gen_path(record["gen"])
            ):
                self._load_checkpoint(record)
                start = i + 1
                break
        pending: dict[str, list[tuple[str, Delta]]] = {}
        for record in records[start:]:
            kind = record["t"]
            if kind == "create":
                self._rels[record["rel"]] = _RelState(record["schema"])
            elif kind == "drop":
                state = self._rels.pop(record["rel"], None)
                if state is not None:
                    self._pool.drop(state.pages)
            elif kind == "index":
                state = self._rels.get(record["rel"])
                if state is not None and record["cols"] not in state.indexes:
                    state.indexes.append(record["cols"])
            elif kind == "begin":
                pending[record["txn"]] = []
            elif kind == "delta":
                pending.setdefault(record["txn"], []).append(
                    (record["rel"], decode_delta(record))
                )
            elif kind == "commit":
                try:
                    for rel, delta in pending.pop(record["txn"], ()):
                        self._apply_to_pages(rel, delta)
                except Exception as exc:
                    # Commits are size-validated before they reach the
                    # log, so this is a legacy or damaged entry — skip
                    # and report rather than fail every open forever.
                    self.recovery_errors.append(f"txn {record['txn']}: {exc}")
                else:
                    self.stats.recovered_txns += 1
            # "undo" / "abort" / stale "checkpoint": rollback progress and
            # superseded snapshots — redo replay ignores both (an
            # uncommitted transaction's forward deltas were never logged,
            # so an interrupted rollback simply never happened).
        # Orphan generations: written but never recorded (crash mid-
        # checkpoint) or superseded. Only the live one is referenced.
        for entry in os.listdir(self.path):
            if entry.startswith("pages.") and entry != f"pages.{self._gen}":
                os.remove(os.path.join(self.path, entry))
        return bool(records)

    def _load_checkpoint(self, record: dict[str, Any]) -> None:
        self._gen = record["gen"]
        meta = record["meta"]
        self._next_pid = meta["next_pid"]
        self._base_pager = Pager(
            self._gen_path(self._gen), self.page_size, stats=self.stats
        )
        self._base_index = {int(pid): idx for pid, idx in meta["page_map"].items()}
        for name, rel_meta in meta["catalog"].items():
            state = _RelState(rel_meta["schema"])
            state.indexes = [list(cols) for cols in rel_meta["indexes"]]
            state.pages = list(rel_meta["pages"])
            for pid in state.pages:
                page = self._pool.get(pid)
                for slot, payload in page.records():
                    row, count = unpack_record(payload)
                    state.directory[row] = (pid, slot, count)
            self._rels[name] = state

    # -- catalog (for Database restore) --------------------------------------------

    def relations(self) -> Iterator[tuple[str, Schema, list[list[str]]]]:
        """Recovered catalog: (name, schema, index column lists)."""
        for name, state in self._rels.items():
            yield name, _schema_from_meta(state.schema_meta), state.indexes

    def contents(self, name: str) -> Multiset:
        """Recovered contents of one relation (from the row directory)."""
        data = Multiset()
        for row, (_, _, count) in self._rels[name].directory.items():
            data.add(row, count)
        return data

    # -- DDL journal hooks ---------------------------------------------------------

    def on_create(self, name: str, schema: Schema) -> None:
        if self._frozen:
            return
        self._rels[name] = _RelState(_schema_meta(schema))
        self._wal.append({"t": "create", "rel": name, "schema": _schema_meta(schema)})

    def on_drop(self, name: str) -> None:
        if self._frozen:
            return
        state = self._rels.pop(name, None)
        if state is not None:
            self._pool.drop(state.pages)
        self._wal.append({"t": "drop", "rel": name})

    def on_index(self, name: str, cols: tuple[str, ...]) -> None:
        if self._frozen:
            return
        state = self._rels.get(name)
        listed = list(cols)
        if state is None or listed in state.indexes:
            return
        state.indexes.append(listed)
        self._wal.append({"t": "index", "rel": name, "cols": listed})

    # -- the delta journal (StoredRelation hook) -------------------------------------

    def on_delta(self, name: str, delta: Delta) -> None:
        """One applied forward delta. Buffered into the active transaction,
        or auto-committed as a singleton transaction when none is open
        (bulk loads, direct ``apply_delta`` outside the engine)."""
        if self._frozen or delta.is_empty:
            return
        if self._active is not None:
            self._buffer.append((name, delta))
            return
        self._auto_seq += 1
        self.begin(f"__auto_{self._auto_seq}")
        self._buffer.append((name, delta))
        try:
            self.commit()
        except Exception:
            # A rejected singleton (oversized row) must not wedge the
            # store behind a permanently-open auto transaction.
            self.abort()
            raise

    # -- transaction bracket ---------------------------------------------------------

    def begin(self, txn_id: str) -> None:
        if self._frozen:
            return
        if self._active is not None:
            raise WalError(f"transaction {self._active!r} already active")
        self._active = txn_id
        self._buffer = []
        self._undo_journaled = False

    def commit(self, tracer=None) -> None:
        """The write-ahead commit: log → fsync → apply to pages."""
        if self._frozen:
            return
        if self._active is None:
            raise WalError("commit without begin")
        tracer = tracer if tracer is not None else NULL_TRACER
        before = self.stats.snapshot()
        txn_id = self._active
        if self._buffer:
            # Reject-before-log: anything the page layer cannot apply must
            # fail here, while the WAL still knows nothing — a durable
            # commit record is replayed on every open, so an unapplyable
            # committed delta would brick the directory.
            self._validate_buffer()
            self._crash("commit.wal")
            with tracer.span("wal_append", txn=txn_id, deltas=len(self._buffer)):
                self._wal.append({"t": "begin", "txn": txn_id})
                for rel, delta in self._buffer:
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
            # -------- the commit point: everything below is redo-able --------
            self._crash("commit.apply")
            with tracer.span("page_apply", deltas=len(self._buffer)):
                if self.failed is None:
                    try:
                        for rel, delta in self._buffer:
                            self._apply_to_pages(rel, delta)
                            self._crash("commit.apply_mid")
                    except CrashPoint:
                        raise  # a simulated death unwinds like a real one
                    except Exception as exc:
                        # The commit record is already durable — the
                        # transaction IS committed. Raising here would
                        # run the caller's undo-log rollback against the
                        # log (memory rolled back, recovery rolling
                        # forward). Fail the page cache instead: the WAL
                        # stays the sole truth, later commits skip the
                        # diverged pages, checkpoints refuse, and the
                        # next open rebuilds the pages from the log.
                        self.failed = exc
        self._active = None
        self._buffer = []
        self._commits += 1
        if (
            self.failed is None
            and self.checkpoint_every
            and self._commits % self.checkpoint_every == 0
        ):
            self.checkpoint(tracer)
        self.last_commit_stats = self.stats.since(before)

    def abort(self) -> None:
        """Discard the buffered transaction (nothing reached WAL or pages).

        If rollback progress was journaled (:meth:`journal_undo`), an
        ``abort`` record closes the trail for inspection."""
        if self._frozen:
            return
        if self._active is not None and self._undo_journaled:
            self._wal.append({"t": "abort", "txn": self._active})
        self._active = None
        self._buffer = []
        self._undo_journaled = False

    def journal_undo(self, relation: "StoredRelation", inverse: Delta) -> None:
        """Journal one applied rollback step (called by ``UndoLog.rollback``).

        Recovery ignores these records — the rolled-back transaction's
        forward deltas were never logged, so replay reconstructs the
        pre-transaction state directly — but the trail makes an
        interrupted rollback inspectable and auditable."""
        if self._frozen:
            return
        self._wal.append(
            {
                "t": "undo",
                "txn": self._active if self._active is not None else "?",
                "rel": relation.name,
                **encode_delta(inverse),
            }
        )
        self._undo_journaled = True

    # -- record validation (reject-before-log) -----------------------------------------

    @property
    def max_record_bytes(self) -> int:
        """Largest packed ``[row, count]`` record one slotted page holds
        (the page header and the slot length word subtracted)."""
        return self.page_size - 4

    def _check_record(self, rel: str, row: Row, count: int) -> None:
        payload = pack_record([list(row), count])
        if len(payload) > self.max_record_bytes:
            raise PageError(
                f"row {row!r} in {rel!r} packs to {len(payload)} bytes, over "
                f"the {self.max_record_bytes}-byte limit of a "
                f"{self.page_size}-byte page"
            )

    def validate_delta(
        self, rel: str, delta: Delta, counts: dict[Row, int] | None = None
    ) -> dict[Row, int]:
        """Dry-run one delta's page placement; raise what apply would raise.

        Runs every check :meth:`_apply_to_pages` performs (record size,
        negative multiplicity) without touching a page, so callers can
        reject a transaction before its commit record — or any DDL —
        reaches the WAL. ``counts`` threads prior-delta results when
        simulating a multi-delta buffer (pass the returned dict back in);
        a relation not yet in the catalog simulates as empty, which is
        what ``Database.create_relation`` needs for the initial load.
        """
        if counts is None:
            counts = {}
        state = self._rels.get(rel)
        for row, change in _net(delta).items():
            if change == 0:
                continue
            base = counts.get(row)
            if base is None:
                existing = state.directory.get(row) if state is not None else None
                base = existing[2] if existing else 0
            count = base + change
            if count < 0:
                raise WalError(f"negative count for {row} in {rel} during apply")
            if count > 0:
                self._check_record(rel, row, count)
            counts[row] = count
        return counts

    def _validate_buffer(self) -> None:
        shadow: dict[str, dict[Row, int]] = {}
        for rel, delta in self._buffer:
            self._state(rel)  # an unknown relation also rejects pre-log
            shadow[rel] = self.validate_delta(rel, delta, shadow.get(rel))

    # -- page application ------------------------------------------------------------

    def _state(self, rel: str) -> _RelState:
        state = self._rels.get(rel)
        if state is None:
            raise WalError(f"delta against unknown relation {rel!r}")
        return state

    def _apply_to_pages(self, rel: str, delta: Delta) -> None:
        state = self._state(rel)
        for row, change in _net(delta).items():
            if change == 0:
                continue
            existing = state.directory.get(row)
            count = (existing[2] if existing else 0) + change
            if count < 0:
                raise WalError(f"negative count for {row} in {rel} during apply")
            if existing is not None:
                pid, slot, _ = existing
                page = self._pool.get(pid)
                page.mark_dead(slot)
                self._pool.mark_dirty(pid)
                del state.directory[row]
            if count > 0:
                payload = pack_record([list(row), count])
                pid, slot = self._place(state, payload)
                state.directory[row] = (pid, slot, count)

    def _place(self, state: _RelState, payload: bytes) -> tuple[int, int]:
        """Append a record to the relation's fill page, or open a new one."""
        if state.pages:
            pid = state.pages[-1]
            page = self._pool.get(pid)
            if page.fits(payload):
                slot = page.add(payload)
                self._pool.mark_dirty(pid)
                return pid, slot
        pid = self._next_pid
        self._next_pid += 1
        page = Page(self.page_size)
        slot = page.add(payload)  # PageError for an oversized row
        state.pages.append(pid)
        self._pool.put_new(pid, page)
        return pid, slot

    # -- checkpoint --------------------------------------------------------------------

    def checkpoint(self, tracer=None) -> int:
        """Snapshot every page into a new immutable generation.

        Protocol: write all pages to ``pages.<gen+1>``, fsync, then append
        (and fsync) a ``checkpoint`` record carrying the catalog and the
        page map. Only once that record is durable does the store switch
        generations, rotate the WAL down to just the checkpoint record
        (replay starts there — everything earlier is dead weight),
        truncate the overlay, and delete the old generation — a crash
        anywhere in between leaves the previous checkpoint intact.
        Returns the number of pages written."""
        if self._frozen:
            return 0
        if self.failed is not None:
            # The in-pool pages diverged from the log after a post-barrier
            # apply failure; snapshotting them would durably corrupt what
            # the WAL can still rebuild.
            raise WalError(
                f"page state diverged after a post-commit apply failure "
                f"({self.failed!r}); reopen the directory to rebuild from the WAL"
            )
        tracer = tracer if tracer is not None else NULL_TRACER
        self._crash("checkpoint.begin")
        gen = self._gen + 1
        pager = Pager(self._gen_path(gen), self.page_size, create=True, stats=self.stats)
        pids = sorted(pid for state in self._rels.values() for pid in state.pages)
        new_index: dict[int, int] = {}
        with tracer.span("checkpoint_pages", pages=len(pids), gen=gen):
            for i, pid in enumerate(pids):
                self._crash("checkpoint.page")
                pager.write_page(i, self._pool.get(pid).to_bytes())
                new_index[pid] = i
            pager.fsync()
        self._crash("checkpoint.record")
        meta = {
            "next_pid": self._next_pid,
            "page_map": {str(pid): idx for pid, idx in new_index.items()},
            "catalog": {
                name: {
                    "schema": state.schema_meta,
                    "indexes": state.indexes,
                    "pages": state.pages,
                }
                for name, state in self._rels.items()
            },
        }
        record = {"t": "checkpoint", "gen": gen, "meta": meta}
        with tracer.span("checkpoint_record", gen=gen):
            self._wal.append(record)
            self._wal.sync()
        old_pager, old_gen = self._base_pager, self._gen
        self._base_pager, self._base_index, self._gen = pager, new_index, gen
        self._crash("checkpoint.cleanup")
        self._wal.rotate([record])
        self._pool.after_checkpoint()
        if old_pager is not None:
            old_pager.close()
            os.remove(self._gen_path(old_gen))
        self.stats.checkpoints += 1
        return len(pids)

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
        if self._base_pager is not None:
            self._base_pager.close()
        self._pool._overlay.close()

    def __repr__(self) -> str:
        return (
            f"<DurableStore {self.path}: gen {self._gen}, "
            f"{len(self._rels)} relations, {self._next_pid} pages>"
        )
