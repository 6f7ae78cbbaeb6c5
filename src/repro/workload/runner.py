"""Drive a transaction stream through the transactional engine.

Benchmarks, examples, and the CLI all used to hand-roll the same loop:
apply each transaction, diff the I/O counter, tally violations. The
:func:`run_transactions` runner replaces that wiring — it commits every
transaction through one :class:`~repro.engine.engine.Engine` (so the
active :class:`~repro.engine.policy.MaintenancePolicy` decides immediate
vs. batched maintenance, and enforcement rejects violators atomically)
and returns a :class:`StreamReport` of what happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

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
    results: list["TransactionResult"] = field(default_factory=list)


@dataclass
class StreamReport:
    """What happened to a stream of transactions committed via the engine."""

    submitted: int = 0
    committed: int = 0
    deferred: int = 0
    rejected: int = 0
    io: IOStats = field(default_factory=IOStats)
    new_violations: dict[str, int] = field(default_factory=dict)
    cleared_violations: dict[str, int] = field(default_factory=dict)
    results: list["TransactionResult"] = field(default_factory=list)
    # What the engine's MetricsRegistry accumulated over this run (counter
    # deltas; see MetricsRegistry.since). Gauges derived from cumulative
    # stores (the durable pager) are re-derived per run — see
    # _per_run_durable_metrics — so back-to-back runs don't bleed.
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
        if self.deferred:
            pieces.insert(3, f"{self.deferred} still queued")
        if self.batches:
            pieces.append(f"{self.batches} group-commit batches")
        if self.new_violations:
            entered = sum(self.new_violations.values())
            pieces.append(f"{entered} violations entered")
        return ", ".join(pieces)


def run_transactions(
    engine: "Engine",
    txns: Iterable[Transaction],
    flush: bool = True,
    keep_results: bool = False,
    on_result: "Callable[[TransactionResult], None] | None" = None,
) -> StreamReport:
    """Commit every transaction in ``txns`` through ``engine``.

    A transaction the :class:`~repro.engine.policy.EnforcingPolicy`
    rejects (rolled back atomically) counts as ``rejected``. Under a
    :class:`~repro.engine.policy.DeferredPolicy` commits queue until a
    batch flush; the final ``flush`` (enabled by default) applies the tail
    batch — if an enforcing flush rejects that batch, its transactions
    count as ``rejected`` and the report is still returned — and anything
    still queued afterwards is reported ``deferred``. I/O and violation
    tallies fold in every applied result, batch flushes included.
    ``keep_results`` retains each :class:`TransactionResult`; ``on_result``
    is called per engine result (e.g. for adaptive hooks). ``metrics``
    carries the engine metrics delta over the run.
    """
    from repro.constraints.assertions import AssertionViolation

    metrics = getattr(engine, "metrics", None)
    metrics_before = metrics.snapshot() if metrics is not None else None
    durable = getattr(engine.db, "durable", None)
    pager_before = durable.stats.snapshot() if durable is not None else None
    report = StreamReport()
    for txn in txns:
        report.submitted += 1
        try:
            result = engine.execute(txn)
        except AssertionViolation:
            report.rejected += 1
            continue
        _fold(report, result, keep_results)
        if on_result is not None:
            on_result(result)
    if flush:
        # An enforcing policy can reject the tail batch; the batch's
        # transactions then count as rejected (they were rolled back
        # atomically) and the report survives.
        pending_before = engine.pending
        try:
            flushed = engine.flush()
        except AssertionViolation:
            report.rejected += pending_before
        else:
            if flushed is not None:
                _fold(report, flushed, keep_results)
    report.deferred = engine.pending
    report.committed = report.submitted - report.rejected - report.deferred
    if metrics is not None and metrics_before is not None:
        report.metrics = metrics.since(metrics_before)
        if durable is not None and pager_before is not None:
            _per_run_durable_metrics(report.metrics, durable.stats, pager_before)
    return report


def _per_run_durable_metrics(
    metrics: dict[str, float], stats, before: dict[str, int]
) -> None:
    """Overwrite durable gauges with this run's deltas.

    The engine's ``_observe`` sets ``durable.*`` gauges from the store's
    *cumulative* :class:`~repro.storage.pager.PagerStats`, and
    ``MetricsRegistry.since`` passes gauges through by value — so a second
    ``run_transactions`` over the same durable engine used to report the
    first run's traffic in its own ``StreamReport.metrics``. Re-derive
    every durable gauge from the per-run log delta instead, consistently
    with how counters report.
    """
    for key, value in stats.since(before).items():
        if value or f"durable.{key}" in metrics:
            metrics[f"durable.{key}"] = value


def run_concurrent_transactions(
    engine: "Engine",
    streams: "Sequence[Iterable[Transaction]]",
    max_batch: int = 32,
    queue_size: int = 256,
    flush: bool = True,
    keep_results: bool = False,
) -> tuple[StreamReport, list["BatchRecord"]]:
    """Drive one transaction stream per client through the group committer.

    Each of the ``len(streams)`` clients runs on its own thread, submitting
    its transactions in order to a shared single-writer
    :class:`~repro.server.commit.GroupCommitter`; the committer drains the
    queue in batches of up to ``max_batch``, composes each batch into one
    transaction, and commits it through ``engine``'s policy — one
    maintenance pass (and one WAL barrier, when durable) per batch.

    Returns ``(report, batches)``: the report folds each composed batch's
    I/O exactly once (per-rider results inside a batch carry none), and
    the :class:`BatchRecord` list is the serial schedule the run is
    equivalent to — replay it with
    :func:`~repro.server.commit.replay_batches` to check bit-identity.
    """
    import threading

    from repro.constraints.assertions import AssertionViolation
    from repro.server.commit import GroupCommitter

    metrics = getattr(engine, "metrics", None)
    metrics_before = metrics.snapshot() if metrics is not None else None
    durable = getattr(engine.db, "durable", None)
    pager_before = durable.stats.snapshot() if durable is not None else None
    committer = GroupCommitter(
        engine, max_batch=max_batch, queue_size=queue_size, metrics=metrics
    )
    committer.start()
    report = StreamReport()
    clients = [ClientReport(client=i) for i in range(len(streams))]

    def drive(client: ClientReport, stream: "Iterable[Transaction]") -> None:
        for txn in stream:
            client.submitted += 1
            request = committer.submit(txn)
            try:
                result = request.wait()
            except AssertionViolation:
                client.rejected += 1
                continue
            client.committed += 1
            if request.latency is not None:
                client.latencies.append(request.latency)
            if keep_results:
                client.results.append(result)

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
    committer.close(flush=False)
    # Riders whose batch was accepted under a deferred policy are queued,
    # not applied; the tail flush below applies them (mirroring
    # run_transactions' accounting).
    deferred_riders = sum(
        1
        for record in committer.batches
        for result in record.results
        if result.deferred
    )
    report.clients = clients
    report.batches = len(committer.batches)
    report.submitted = sum(c.submitted for c in clients)
    report.rejected = sum(c.rejected for c in clients)
    for record in committer.batches:
        if record.batch_result is not None:
            _fold(report, record.batch_result, keep=False)
        elif record.replayed:
            for result in record.results:
                _fold(report, result, keep=False)
    if flush:
        try:
            flushed = engine.flush()
        except AssertionViolation:
            report.rejected += deferred_riders
            deferred_riders = 0
        else:
            if flushed is not None:
                _fold(report, flushed, keep_results)
    report.deferred = deferred_riders if engine.pending else 0
    report.committed = report.submitted - report.rejected - report.deferred
    if metrics is not None and metrics_before is not None:
        report.metrics = metrics.since(metrics_before)
        if durable is not None and pager_before is not None:
            _per_run_durable_metrics(report.metrics, durable.stats, pager_before)
    return report, committer.batches


def _fold(report: StreamReport, result: "TransactionResult", keep: bool) -> None:
    report.io = report.io + result.io
    for name, rows in result.new_violations.items():
        report.new_violations[name] = (
            report.new_violations.get(name, 0) + rows.total()
        )
    for name, rows in result.cleared_violations.items():
        report.cleared_violations[name] = (
            report.cleared_violations.get(name, 0) + rows.total()
        )
    if keep:
        report.results.append(result)
