"""Group commit: a single-writer thread draining a bounded commit queue.

A client submits a *rider*: a ready-made
:class:`~repro.workload.transactions.Transaction` (the multi-client
workload driver, tests), or a :class:`~repro.sql.dml.StatementRider` —
parsed DML whose delta is derived on the commit thread (the socket
server). It then either blocks on the request (:meth:`CommitRequest.wait`)
or is called back from the commit thread when the request resolves. The
committer thread drains the queue in batches, derives each statement rider
in queue order against the stored rows overlaid with the net delta of the
riders before it, composes the batch's deltas into **one** transaction
with :func:`~repro.ivm.compose.compose_batch` and commits it through the
engine's one commit body — one maintenance pass (and, when durable, one
WAL barrier/fsync) no matter how many clients rode along. A rider whose
derivation raises fails alone.

:meth:`GroupCommitter.commit_batch` is the only code that batches commits.
The commit thread calls it on each drained batch; an unstarted committer
runs it on the caller's thread, which is how in-process batching (E7,
:func:`replay_batches`, the tests) commits a chunk of riders at once.

Failure isolation: a composed batch that raises (an
:class:`~repro.constraints.assertions.AssertionViolation` on an enforcing
engine, or any storage error) falls back to per-client replay, so only the
offending client is rejected while innocent bystanders in the same batch
still commit. The replay re-derives each statement rider against the state
the riders before it left.

Every batch is recorded as a :class:`BatchRecord`; :func:`replay_batches`
re-commits the recorded batch sequence through a fresh engine on the
caller's thread — the deterministic serial schedule the concurrent run is
equivalent to, used by the property tests and the benchmark to check
bit-identity.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

from repro.algebra.multiset import Multiset
from repro.engine.engine import EngineError, TransactionResult
from repro.ivm.compose import compose_batch
from repro.workload.transactions import Transaction

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.engine.engine import Engine
    from repro.sql.dml import StatementRider


@dataclass
class CommitRequest:
    """One client's submitted rider, awaiting its batch.

    ``txn`` is the transaction the rider came to: the rider itself when it
    is a ready transaction, else what the commit thread derived (None until
    then, or when derivation failed). ``callback``, if given, is called
    with the request on the commit thread once it resolves; it must not
    raise.
    """

    rider: "Transaction | StatementRider"
    callback: Callable[["CommitRequest"], None] | None = None
    txn: Transaction | None = None
    submitted_at: float = field(default_factory=time.monotonic)
    resolved_at: float | None = None
    result: TransactionResult | None = None
    error: BaseException | None = None
    _done: threading.Event = field(default_factory=threading.Event, repr=False)

    def resolve(self, result: TransactionResult) -> None:
        self.result = result
        self._finish()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self._finish()

    def _finish(self) -> None:
        self.resolved_at = time.monotonic()
        self._done.set()
        if self.callback is not None:
            self.callback(self)

    def wait(self, timeout: float | None = None) -> TransactionResult:
        """Block until the committer resolves this request; re-raises the
        per-client error (e.g. an ``AssertionViolation``) on rejection."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"commit of {self.rider.type_name!r} did not resolve in {timeout}s"
            )
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result

    @property
    def latency(self) -> float | None:
        """Submit-to-resolve wall time in seconds (None while pending)."""
        if self.resolved_at is None:
            return None
        return self.resolved_at - self.submitted_at


@dataclass
class BatchRecord:
    """What one drained batch did — the serial-schedule witness.

    ``riders`` are the batch's riders as submitted, in queue (arrival)
    order; replaying the records in sequence through a fresh engine is
    *the* serial permutation the concurrent run claims equivalence with.
    ``txns`` are the transactions as finally committed or rejected: a
    statement rider's as derived (re-derived when the batch replayed),
    none for a rider whose derivation failed.
    """

    seq: int
    riders: tuple["Transaction | StatementRider", ...]
    txns: tuple[Transaction, ...] = ()
    replayed: bool = False  # composed commit failed; fell back to per-client
    empty: bool = False  # batch deltas cancelled to nothing
    results: list[TransactionResult] = field(default_factory=list)
    #: the composed commit's own result (None for empty or replayed
    #: batches) — carries the batch's maintenance I/O exactly once, where
    #: per-rider results carry none.
    batch_result: TransactionResult | None = None

    @property
    def size(self) -> int:
        return len(self.riders)

    @property
    def txn_names(self) -> tuple[str, ...]:
        return tuple(t.type_name for t in self.riders)


_SHUTDOWN = object()


class GroupCommitter:
    """The single-writer commit thread over a bounded queue.

    Usage::

        committer = GroupCommitter(engine, max_batch=32)
        committer.start()
        try:
            request = committer.submit(txn)   # any thread
            result = request.wait()
        finally:
            committer.close()                 # drains the queue

    Unstarted, ``committer.commit_batch(riders)`` commits one batch on the
    caller's thread.

    The queue is bounded (queue-based load leveling): when ``queue_size``
    requests are in flight, ``submit`` blocks, back-pressuring producers
    instead of growing memory without bound.
    """

    def __init__(
        self,
        engine: "Engine",
        max_batch: int = 32,
        queue_size: int = 256,
    ) -> None:
        if max_batch < 1:
            raise EngineError("max_batch must be positive")
        self.engine = engine
        self.max_batch = max_batch
        self.metrics = engine.metrics
        self._queue: queue.Queue = queue.Queue(maxsize=max(queue_size, 1))
        # The depth is read when a snapshot is taken. The reader holds the
        # queue, not the committer and its batch records.
        pending = self._queue
        self.metrics.source("commit_queue", lambda: {"depth": pending.qsize()})
        self._thread: threading.Thread | None = None
        self._closed = False
        self._batch_seq = 0
        self.batches: list[BatchRecord] = []

    # -- producer side -----------------------------------------------------------

    def start(self) -> "GroupCommitter":
        if self._thread is not None:
            raise EngineError("committer already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-group-commit", daemon=True
        )
        self._thread.start()
        return self

    def submit(
        self,
        txn: "Transaction | StatementRider",
        timeout: float | None = None,
        callback: Callable[[CommitRequest], None] | None = None,
    ) -> CommitRequest:
        """Enqueue one rider; returns its pending :class:`CommitRequest`.

        Blocks when the queue is full (bounded back-pressure). ``callback``
        is called with the request on the commit thread once it resolves.
        Raises :class:`EngineError` once the committer is closed.
        """
        if self._closed:
            raise EngineError("committer is closed")
        request = CommitRequest(txn, callback)
        self._queue.put(request, timeout=timeout)
        self.metrics.counter("commit_queue.submitted").inc()
        return request

    def execute(self, txn: Transaction, timeout: float | None = None) -> TransactionResult:
        """Submit and wait — the blocking convenience used by clients."""
        return self.submit(txn, timeout=timeout).wait(timeout)

    def close(self, timeout: float | None = None) -> None:
        """Stop accepting work, drain the queue and join the thread."""
        if self._closed:
            return
        self._closed = True
        if self._thread is not None:
            self._queue.put(_SHUTDOWN)
            self._thread.join(timeout)
            self._thread = None

    # -- committer thread --------------------------------------------------------

    def _run(self) -> None:
        while True:
            first = self._queue.get()
            if first is _SHUTDOWN:
                return
            batch = [first]
            while len(batch) < self.max_batch:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is _SHUTDOWN:
                    self._commit(batch)
                    return
                batch.append(item)
            self._commit(batch)

    def commit_batch(
        self, riders: Iterable["Transaction | StatementRider"]
    ) -> list[CommitRequest]:
        """Commit ``riders`` as one batch on the caller's thread.

        Each statement rider derives against the stored rows overlaid with
        the net delta of the riders ahead of it; the batch is composed and
        committed once, and replayed rider by rider if that commit fails.
        Returns one resolved :class:`CommitRequest` per rider, in order:
        its ``result`` when it committed, its ``error`` when it failed
        alone. Call it only on an unstarted committer — the commit thread
        is the one writer of a started one."""
        if self._thread is not None:
            raise EngineError("commit_batch runs on an unstarted committer")
        requests = [CommitRequest(rider) for rider in riders]
        if requests:
            self._commit(requests)
        return requests

    def _commit(self, requests: list[CommitRequest]) -> None:
        """Derive, compose, commit once, distribute per-client results; on
        failure replay per client so only the violator is rejected."""
        engine = self.engine
        self._batch_seq += 1
        seq = self._batch_seq
        record = BatchRecord(seq=seq, riders=tuple(r.rider for r in requests))
        self.batches.append(record)
        self.metrics.counter("commit_queue.batches").inc()
        self.metrics.histogram("commit_queue.batch_size").observe(len(requests))
        with engine.tracer.span("group_commit", batch=seq, size=len(requests)):
            requests = self._derive(requests)
            record.txns = tuple(r.txn for r in requests)
            composed = compose_batch(engine.db, record.txns, f"__group_{seq}")
            if composed is None:
                # The riders' deltas cancelled each other: nothing reaches
                # storage, everyone committed (net effect of the batch is
                # the empty transaction).
                record.empty = True
                for request in requests:
                    result = TransactionResult(
                        txn=request.txn, committed=True, batch=seq
                    )
                    record.results.append(result)
                    request.resolve(result)
                return
            try:
                batch_result = engine.execute(composed)
            except Exception:
                self._replay(record, requests)
                return
            # The batch's maintenance I/O and violation report belong to
            # the composed commit, not to any single rider; keep them on
            # the record for the report/bench layer to fold exactly once.
            record.batch_result = batch_result
            for request in requests:
                result = TransactionResult(txn=request.txn, committed=True, batch=seq)
                record.results.append(result)
                request.resolve(result)

    def _derive(self, requests: list[CommitRequest]) -> list[CommitRequest]:
        """Derive each statement rider in queue order against the stored
        rows overlaid with the net delta of the riders ahead of it; a rider
        whose derivation raises fails alone. Returns the riders that now
        carry a transaction."""
        db = self.engine.db
        pending: dict[str, Multiset] = {}
        derived: list[CommitRequest] = []
        folded = 0
        for request in requests:
            rider = request.rider
            if isinstance(rider, Transaction):
                request.txn = rider
            else:
                for earlier in derived[folded:]:
                    for relation, delta in earlier.txn.deltas.items():
                        pending.setdefault(relation, Multiset()).update(delta.net())
                folded = len(derived)
                try:
                    request.txn = rider.derive(db, pending)
                except Exception as exc:  # the statement's own fault, or a bug
                    request.fail(exc)
                    continue
            derived.append(request)
        return derived

    def _replay(self, record: BatchRecord, requests: list[CommitRequest]) -> None:
        """Per-client fallback: the composed commit failed (it already
        rolled the database back), so commit each rider individually —
        a statement rider re-derived against the state the riders before
        it left — and reject only the ones that fail on their own."""
        record.replayed = True
        self.metrics.counter("commit_queue.replays").inc()
        for request in requests:
            rider = request.rider
            try:
                if not isinstance(rider, Transaction):
                    request.txn = None  # stays None if re-derivation fails
                    request.txn = rider.derive(self.engine.db)
                result = self.engine.execute(request.txn)
            except Exception as exc:  # AssertionViolation, storage errors
                request.fail(exc)
            else:
                result.batch = record.seq
                record.results.append(result)
                request.resolve(result)
        record.txns = tuple(r.txn for r in requests if r.txn is not None)


def replay_batches(
    engine: "Engine", batches: Iterable[BatchRecord]
) -> list[BatchRecord]:
    """Re-commit a recorded batch sequence serially on the caller's thread.

    Runs each recorded batch's riders through an unstarted committer's
    :meth:`~GroupCommitter.commit_batch` (same derivation, same compose,
    same fallback — a statement rider derives against the oracle's own
    state, which is the state the live run derived it against): the
    deterministic serial schedule a live concurrent run must be
    bit-identical to. Returns the replayed records.
    """
    oracle = GroupCommitter(engine)
    for record in batches:
        oracle.commit_batch(record.riders)
    return oracle.batches
