"""Drive a transaction stream through the transactional engine.

Benchmarks, examples, and the CLI all used to hand-roll the same loop:
apply each transaction, diff the I/O counter, tally violations. The
:func:`run_transactions` runner replaces that wiring — it commits every
transaction through one :class:`~repro.engine.engine.Engine` (an
enforcing engine rejects violators atomically) and returns a
:class:`StreamReport` of what happened. Batching is the group committer's:
:func:`run_concurrent_transactions` drives one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.storage.pager import IOStats
from repro.workload.transactions import Transaction

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.engine.engine import Engine, TransactionResult
    from repro.server.commit import BatchRecord


@dataclass
class ClientReport:
    """One concurrent client's share of a multi-client run."""

    client: int
    submitted: int = 0
    committed: int = 0
    rejected: int = 0
    #: submit-to-resolve commit latencies, seconds, in submission order.
    latencies: list[float] = field(default_factory=list)


@dataclass
class StreamReport:
    """What happened to a stream of transactions committed via the engine."""

    submitted: int = 0
    committed: int = 0
    rejected: int = 0
    io: IOStats = field(default_factory=IOStats)
    new_violations: dict[str, int] = field(default_factory=dict)
    cleared_violations: dict[str, int] = field(default_factory=dict)
    # What the engine's MetricsRegistry counted over this run, cache and
    # durable-log counts included (see MetricsRegistry.since).
    metrics: dict[str, float] = field(default_factory=dict)
    #: group-commit batches drained (0 for single-client runs).
    batches: int = 0
    #: per-client breakdown of a concurrent run (empty otherwise).
    clients: list[ClientReport] = field(default_factory=list)

    def __str__(self) -> str:
        pieces = [
            f"{self.submitted} submitted",
            f"{self.committed} committed",
            f"{self.rejected} rejected",
            f"{self.io.total} page I/Os",
        ]
        if self.batches:
            pieces.append(f"{self.batches} group-commit batches")
        if self.new_violations:
            entered = sum(self.new_violations.values())
            pieces.append(f"{entered} violations entered")
        return ", ".join(pieces)


def run_transactions(
    engine: "Engine",
    txns: Iterable[Transaction],
) -> StreamReport:
    """Commit every transaction in ``txns`` through ``engine``.

    A transaction an enforcing engine rejects (rolled back atomically)
    counts as ``rejected``. I/O and violation tallies fold in every
    committed result. ``metrics`` carries the engine metrics delta over
    the run.
    """
    from repro.constraints.assertions import AssertionViolation

    metrics_before = engine.metrics.snapshot()
    report = StreamReport()
    for txn in txns:
        report.submitted += 1
        try:
            result = engine.execute(txn)
        except AssertionViolation:
            report.rejected += 1
            continue
        _fold(report, result)
    report.committed = report.submitted - report.rejected
    report.metrics = engine.metrics.since(metrics_before)
    return report


def run_concurrent_transactions(
    engine: "Engine",
    streams: "Sequence[Iterable[Transaction]]",
    max_batch: int = 32,
    queue_size: int = 256,
) -> tuple[StreamReport, list["BatchRecord"]]:
    """Drive one transaction stream per client through the group committer.

    Each of the ``len(streams)`` clients runs on its own thread, submitting
    its transactions in order to a shared single-writer
    :class:`~repro.server.commit.GroupCommitter`; the committer drains the
    queue in batches of up to ``max_batch``, composes each batch into one
    transaction, and commits it through ``engine`` — one maintenance pass
    (and one WAL barrier, when durable) per batch.

    A client stops at its first exception other than a rejection, as
    :func:`run_transactions` does; the first such exception, in client
    order, is re-raised once every client has stopped.

    Returns ``(report, batches)``: the report folds each composed batch's
    I/O exactly once (per-rider results inside a batch carry none), and
    the :class:`BatchRecord` list is the serial schedule the run is
    equivalent to — replay it with
    :func:`~repro.server.commit.replay_batches` to check bit-identity.
    """
    import threading

    from repro.constraints.assertions import AssertionViolation
    from repro.server.commit import GroupCommitter

    metrics_before = engine.metrics.snapshot()
    committer = GroupCommitter(engine, max_batch=max_batch, queue_size=queue_size)
    committer.start()
    report = StreamReport()
    clients = [ClientReport(client=i) for i in range(len(streams))]
    failures: list[BaseException | None] = [None] * len(streams)

    def drive(client: ClientReport, stream: "Iterable[Transaction]") -> None:
        try:
            for txn in stream:
                client.submitted += 1
                request = committer.submit(txn)
                try:
                    request.wait()
                except AssertionViolation:
                    client.rejected += 1
                    continue
                client.committed += 1
                if request.latency is not None:
                    client.latencies.append(request.latency)
        except Exception as exc:  # noqa: BLE001 - re-raised on the caller's thread
            failures[client.client] = exc

    threads = [
        threading.Thread(
            target=drive, args=(client, stream), name=f"repro-client-{client.client}"
        )
        for client, stream in zip(clients, streams)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    committer.close()
    for failure in failures:
        if failure is not None:
            raise failure
    report.clients = clients
    report.batches = len(committer.batches)
    report.submitted = sum(c.submitted for c in clients)
    report.rejected = sum(c.rejected for c in clients)
    for record in committer.batches:
        if record.batch_result is not None:
            _fold(report, record.batch_result)
        elif record.replayed:
            for result in record.results:
                _fold(report, result)
    report.committed = report.submitted - report.rejected
    report.metrics = engine.metrics.since(metrics_before)
    return report, committer.batches


def _fold(report: StreamReport, result: "TransactionResult") -> None:
    report.io = report.io + result.io
    for name, rows in result.new_violations.items():
        report.new_violations[name] = (
            report.new_violations.get(name, 0) + rows.total()
        )
    for name, rows in result.cleared_violations.items():
        report.cleared_violations[name] = (
            report.cleared_violations.get(name, 0) + rows.total()
        )
