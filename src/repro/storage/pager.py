"""Pages: the paper's Section 3.6 storage cost model, plus the durable
layer's record codec.

* **Accounting** (:class:`IOCounter` / :class:`IOStats`) — the paper's
  *simulated* page I/O. Every stored relation and index charges this
  shared counter so a maintenance run can be measured end to end and
  compared with the analytic cost model in :mod:`repro.cost.page_io`.
  Assumptions copied from the paper: all indices are hash indices with no
  overflowed buckets; tuples are unclustered, so fetching a tuple costs one
  relation-page I/O; looking up a key costs one index-page I/O plus one page
  per tuple returned; updating a tuple costs one page read (old value) and
  one page write (new value); index pages are read (and written when the
  indexed key changes) once per distinct key touched.

* **Durable records** (:func:`pack_record` / :class:`PagerStats`) — the
  encoding of write-ahead-log frames and the log's own traffic counters,
  used by the opt-in durability layer (:mod:`repro.storage.durable`). The
  durable layer NEVER touches the :class:`IOCounter`: logical accounting
  stays bit-identical with durability on or off.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any


@dataclass
class IOStats:
    """Immutable snapshot of I/O counts."""

    index_reads: int = 0
    index_writes: int = 0
    tuple_reads: int = 0
    tuple_writes: int = 0

    @property
    def total(self) -> int:
        return self.index_reads + self.index_writes + self.tuple_reads + self.tuple_writes

    def __sub__(self, other: "IOStats") -> "IOStats":
        return IOStats(
            self.index_reads - other.index_reads,
            self.index_writes - other.index_writes,
            self.tuple_reads - other.tuple_reads,
            self.tuple_writes - other.tuple_writes,
        )

    def __add__(self, other: "IOStats") -> "IOStats":
        return IOStats(
            self.index_reads + other.index_reads,
            self.index_writes + other.index_writes,
            self.tuple_reads + other.tuple_reads,
            self.tuple_writes + other.tuple_writes,
        )

    def __str__(self) -> str:
        return (
            f"{self.total} I/Os (idx r/w {self.index_reads}/{self.index_writes}, "
            f"tup r/w {self.tuple_reads}/{self.tuple_writes})"
        )


class IOCounter:
    """Mutable page-I/O counter charged by storage operations."""

    def __init__(self) -> None:
        self._index_reads = 0
        self._index_writes = 0
        self._tuple_reads = 0
        self._tuple_writes = 0
        self.enabled = True

    def charge_index_read(self, pages: int = 1) -> None:
        if self.enabled:
            self._index_reads += pages

    def charge_index_write(self, pages: int = 1) -> None:
        if self.enabled:
            self._index_writes += pages

    def charge_tuple_read(self, tuples: int = 1) -> None:
        if self.enabled:
            self._tuple_reads += tuples

    def charge_tuple_write(self, tuples: int = 1) -> None:
        if self.enabled:
            self._tuple_writes += tuples

    def snapshot(self) -> IOStats:
        return IOStats(
            self._index_reads, self._index_writes, self._tuple_reads, self._tuple_writes
        )

    def reset(self) -> None:
        self._index_reads = self._index_writes = 0
        self._tuple_reads = self._tuple_writes = 0

    @property
    def total(self) -> int:
        return self.snapshot().total

    class _Suspended:
        def __init__(self, counter: "IOCounter") -> None:
            self._counter = counter

        def __enter__(self) -> None:
            self._was_enabled = self._counter.enabled
            self._counter.enabled = False

        def __exit__(self, *exc) -> None:
            self._counter.enabled = self._was_enabled

    def suspended(self) -> "_Suspended":
        """Context manager that disables charging (setup / verification)."""
        return IOCounter._Suspended(self)

    class _Scoped:
        """Attributes the I/O charged inside a ``with`` block (see
        :meth:`IOCounter.scoped`). ``stats`` holds the block's
        :class:`IOStats` after exit; ``so_far`` reads it mid-block."""

        def __init__(self, counter: "IOCounter") -> None:
            self._counter = counter
            self._before = counter.snapshot()
            self.stats = IOStats()

        def __enter__(self) -> "IOCounter._Scoped":
            self._before = self._counter.snapshot()
            return self

        def __exit__(self, *exc) -> None:
            self.stats = self._counter.snapshot() - self._before

        @property
        def so_far(self) -> IOStats:
            """Charges accumulated since the block was entered."""
            return self._counter.snapshot() - self._before

    def scoped(self) -> "_Scoped":
        """Context manager that attributes charges to one scope.

        Charging stays enabled — the scope is pure measurement (built on
        :meth:`IOStats.__sub__`), so nesting and interleaving with
        :meth:`suspended` both do the obvious thing. Used for
        per-transaction I/O attribution in the engine layer.
        """
        return IOCounter._Scoped(self)


# ---------------------------------------------------------------------------
# The durable layer's record codec and traffic counters.
# ---------------------------------------------------------------------------


def pack_record(obj: Any) -> bytes:
    """Serialize one durable record (WAL payloads, checkpoint rows).

    JSON keeps the format inspectable; tuples round-trip as lists and are
    re-tupled on decode. Values must be JSON scalars (int/float/str/bool/
    None) — everything the paper's workloads store.
    """
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def unpack_record(data: bytes) -> Any:
    return _retuple(json.loads(data.decode("utf-8")))


def _retuple(value: Any) -> Any:
    """JSON decodes tuples as lists; rows are tuples — convert back."""
    if isinstance(value, list):
        return tuple(_retuple(v) for v in value)
    return value


@dataclass
class PagerStats:
    """Actual log traffic — entirely separate from :class:`IOStats`.

    ``wal_records`` / ``wal_bytes`` count frames written to the log
    (commits and checkpoint snapshots alike), ``fsyncs`` every durability
    barrier, ``checkpoints`` completed log rotations and
    ``recovered_txns`` the committed transactions replayed on open.
    """

    wal_records: int = 0
    wal_bytes: int = 0
    fsyncs: int = 0
    checkpoints: int = 0
    recovered_txns: int = 0

    def snapshot(self) -> dict[str, int]:
        return dict(vars(self))

    def since(self, before: dict[str, int]) -> dict[str, int]:
        now = self.snapshot()
        return {k: now[k] - before.get(k, 0) for k in now}

    def describe(self) -> str:
        return (
            f"wal {self.wal_records} records / {self.wal_bytes} B / "
            f"{self.fsyncs} fsyncs; {self.checkpoints} checkpoints"
        )
