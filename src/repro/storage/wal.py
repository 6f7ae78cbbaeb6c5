"""Write-ahead log: the durable store itself, as framed delta records.

Every record is one JSON object framed as

    u32 payload_length | u32 crc32(payload) | payload

The log is delta-based rather than page-based, and it is the *only*
durable copy of the data: the deltas the maintenance machinery already
produces (and :class:`~repro.storage.undo.UndoLog` journals for
rollback) are the natural recovery log for materialized state, so
recovery is "load the checkpoint snapshot at the head of the log, then
replay the committed deltas after it".

Record vocabulary (the ``"t"`` field):

``create``/``drop``/``index``
    DDL — relation created (name, schema), dropped, or indexed.
``begin`` / ``delta`` / ``commit``
    One committed transaction: ``begin txn``, one ``delta`` per touched
    relation (inserts/deletes as ``[row, count]`` pairs, modifies as
    ``[old, new]`` pairs), then ``commit txn``. Recovery applies a
    transaction's deltas only when its ``commit`` record made it to disk.
``undo`` / ``abort``
    Rollback progress: each ``undo`` journals one inverse delta *after*
    it was applied in memory, ``abort`` closes the rollback. Recovery
    ignores both (an uncommitted transaction's forward deltas were never
    logged), but the trail makes an interrupted rollback inspectable and,
    because recovery rebuilds from the checkpoint + committed deltas
    only, an interrupted rollback is finished implicitly — the half-
    undone transaction simply never happened.
``checkpoint`` / ``rows``
    A snapshot: the ``checkpoint`` header (generation number, every
    relation's schema and indexes) resets the recovered state, and the
    ``rows`` records after it (``[row, count]`` pairs of one relation, in
    bounded chunks) seed it. A checkpoint is written by
    :meth:`WriteAheadLog.rotate`, which replaces the whole log with the
    snapshot, so log length — and recovery cost — is bounded by history
    since the last checkpoint, not total history.

Torn tails: a crash mid-append leaves a final frame with a short or
corrupt payload. :meth:`WriteAheadLog.replay` stops at the first frame
that fails its length or CRC check and truncates the file there, so the
log is again append-clean after recovery. Frames before the torn one are
intact because appends are sequential.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Any, Callable, Iterable, Iterator

from repro.algebra.multiset import Multiset
from repro.ivm.delta import Delta
from repro.storage.pager import PagerStats, pack_record, unpack_record

_FRAME_HEADER = struct.Struct("<II")  # payload length, crc32(payload)


class WalError(Exception):
    """Raised for unrecoverable log damage (not for a torn tail)."""


def _frame(record: dict[str, Any]) -> bytes:
    payload = pack_record(record)
    return _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def encode_delta(delta: Delta) -> dict[str, Any]:
    """Delta -> JSON-safe dict (rows become lists; pack_record re-tuples)."""
    out: dict[str, Any] = {}
    if len(delta.inserts):
        out["ins"] = [
            [list(row), count]
            for row, count in sorted(delta.inserts.items(), key=repr)
        ]
    if len(delta.deletes):
        out["del"] = [
            [list(row), count]
            for row, count in sorted(delta.deletes.items(), key=repr)
        ]
    if delta.modifies:
        out["mod"] = [[list(old), list(new)] for old, new in delta.modifies]
    return out


def decode_delta(obj: dict[str, Any]) -> Delta:
    ins = Multiset()
    for row, count in obj.get("ins", ()):
        ins.add(tuple(row), count)
    dels = Multiset()
    for row, count in obj.get("del", ()):
        dels.add(tuple(row), count)
    mods = [(tuple(old), tuple(new)) for old, new in obj.get("mod", ())]
    return Delta(inserts=ins, deletes=dels, modifies=mods)


class WriteAheadLog:
    """Append-only framed record log with torn-tail recovery."""

    def __init__(self, path: str, stats: PagerStats | None = None) -> None:
        self.path = path
        self.stats = stats if stats is not None else PagerStats()
        #: bytes the last :meth:`replay` cut off a torn tail (0 when clean)
        self.torn_bytes = 0
        # Append mode creates the file; reads reopen separately in replay.
        self._file = open(path, "ab")

    # -- writing -----------------------------------------------------------------

    def append(self, record: dict[str, Any]) -> None:
        frame = _frame(record)
        self._file.write(frame)
        self.stats.wal_records += 1
        self.stats.wal_bytes += len(frame)

    def flush(self) -> None:
        """Push buffered frames to the OS (survives a process kill, not a
        power loss — the ``wal_sync="normal"`` commit barrier)."""
        self._file.flush()

    def sync(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())
        self.stats.fsyncs += 1

    def rotate(
        self,
        records: Iterable[dict[str, Any]],
        before_swap: Callable[[], None] | None = None,
    ) -> None:
        """Atomically replace the log's contents with ``records``.

        Checkpoint rotation: ``records`` (consumed lazily, so a snapshot
        streams straight from its source) are written to a ``.new``
        sidecar and fsynced; ``before_swap`` runs; the sidecar is
        ``os.replace``d over the log and the directory is fsynced, so the
        rename itself survives a power loss — without that, a reverted
        rename would take every commit appended to the new log with it.
        A crash before the replace leaves the old (longer but valid) log,
        a crash after leaves the new one — recovery reads either, and
        deletes a stale sidecar on open.
        """
        sidecar = self.path + ".new"
        with open(sidecar, "wb") as fresh:
            for record in records:
                frame = _frame(record)
                fresh.write(frame)
                self.stats.wal_records += 1
                self.stats.wal_bytes += len(frame)
            fresh.flush()
            os.fsync(fresh.fileno())
        self.stats.fsyncs += 1
        if before_swap is not None:
            before_swap()
        os.replace(sidecar, self.path)
        self._file.close()
        self._file = open(self.path, "ab")
        directory = os.open(os.path.dirname(os.path.abspath(self.path)), os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
        self.stats.fsyncs += 1

    # -- reading -----------------------------------------------------------------

    def replay(self) -> Iterator[dict[str, Any]]:
        """Yield every intact record; truncate the log at a torn tail.

        Safe to call on an open-for-append log (recovery runs before the
        first new append). Truncation only ever removes the final,
        incompletely-written frame — committed records all precede it.
        """
        self._file.flush()
        good_end = 0
        with open(self.path, "rb") as reader:
            data = reader.read()
        offset = 0
        while offset < len(data):
            if offset + _FRAME_HEADER.size > len(data):
                break  # torn header
            length, crc = _FRAME_HEADER.unpack_from(data, offset)
            start = offset + _FRAME_HEADER.size
            payload = data[start : start + length]
            if len(payload) < length or zlib.crc32(payload) != crc:
                break  # torn or corrupt payload
            yield unpack_record(payload)
            offset = start + length
            good_end = offset
        self.torn_bytes = len(data) - good_end
        if self.torn_bytes:
            # Reopen truncating past the tear, keeping append position right.
            self._file.close()
            with open(self.path, "r+b") as fixer:
                fixer.truncate(good_end)
            self._file = open(self.path, "ab")

    # -- lifecycle ---------------------------------------------------------------

    @property
    def size(self) -> int:
        self._file.flush()
        return os.path.getsize(self.path)

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:  # pragma: no cover - best-effort close
            pass

    def __repr__(self) -> str:
        return f"<WriteAheadLog {self.path}: {self.size}B>"
