"""The asyncio socket server: many clients, one engine, one committer.

Connections are cheap asyncio tasks. The event loop decodes and parses
every request and answers ``ping``/``quit``/``metrics`` itself. A write
makes one thread hop each way: its parsed statements go to the
:class:`~repro.server.commit.GroupCommitter` as a
:class:`~repro.sql.dml.StatementRider` — the commit thread derives the
delta in queue order, commits the batch, builds the reply and hands it
back to the loop with ``call_soon_threadsafe``, so no thread parks on a
commit. An in-flight bound of ``queue_size`` writes keeps the commit queue
from ever filling, so back-pressure makes a connection ``await`` and never
blocks the loop. Reads pin an epoch and run as snapshot selects in the
default executor (they take the storage latch, which a commit holds
through its fsync), so a long SELECT neither blocks nor is torn by
concurrent group commits. Statements take the shell's path through
:mod:`repro.sql.dml`, and a failed request's error kind is its
:func:`~repro.sql.dml.error_tier`.

``python -m repro serve`` wraps :func:`run_server`.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
from typing import Any

from repro.server import protocol
from repro.server.commit import CommitRequest, GroupCommitter
from repro.server.protocol import ProtocolError
from repro.shell import corporate_world
from repro.sql import ast
from repro.sql.dml import StatementRider, error_tier, translate_query
from repro.sql.parser import parse


class ReproServer:
    """A maintained corporate database behind a TCP listener.

    Builds the same world as the shell — the paper's corporate data with
    the DeptConstraint assertion — an engine under the requested policy
    (``"immediate"`` reports violations, ``"enforce"`` rejects them),
    and a started :class:`GroupCommitter`. ``port=0`` binds an ephemeral
    port (read it back from ``self.port`` after :meth:`start`).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        policy: str = "immediate",
        durable_path: str | None = None,
        wal_sync: str | None = None,
        n_depts: int = 50,
        emps_per_dept: int = 10,
        seed: int = 0,
        max_batch: int = 32,
        queue_size: int = 256,
    ) -> None:
        self.host = host
        self.port = port
        self.db, _system, self.engine = corporate_world(
            policy,
            n_depts=n_depts,
            emps_per_dept=emps_per_dept,
            seed=seed,
            durable_path=durable_path,
            wal_sync=wal_sync,
        )
        self.policy = policy
        # Server, committer and engine count into the engine's registry.
        self.metrics = self.engine.metrics
        self.committer = GroupCommitter(
            self.engine, max_batch=max_batch, queue_size=queue_size
        )
        # Writes in flight never exceed the commit queue's capacity, so
        # submitting one never blocks the loop.
        self._in_flight = asyncio.Semaphore(max(queue_size, 1))
        self._conn_ids = itertools.count(1)
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the commit thread."""
        self._loop = asyncio.get_running_loop()
        self.committer.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=protocol.MAX_LINE
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Close the listener, drain the commit queue, checkpoint."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.committer.close)
        self.db.close()

    # -- connection handling -----------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = next(self._conn_ids)
        self.metrics.counter("server.connections").inc()
        txn_seq = itertools.count(1)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(
                        protocol.encode(
                            protocol.error("invalid", "request line too long")
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                self.metrics.counter("server.requests").inc()
                try:
                    response = await self._dispatch(
                        protocol.decode(line), conn, txn_seq
                    )
                except Exception as exc:  # noqa: BLE001 - connection boundary
                    tier = error_tier(exc)
                    self.metrics.counter(
                        "server.rejected" if tier == "rejected" else "server.errors"
                    ).inc()
                    response = protocol.error(
                        tier, repr(exc) if tier == "internal" else str(exc)
                    )
                writer.write(protocol.encode(response))
                await writer.drain()
                if response.get("bye"):
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - peer reset
                pass

    # -- request dispatch (on the event loop) ------------------------------------

    async def _dispatch(
        self, request: dict[str, Any], conn: int, txn_seq: "itertools.count"
    ) -> dict[str, Any]:
        op = request.get("op")
        if op == "ping":
            return protocol.ok(pong=True, epoch=self.engine.epoch)
        if op == "quit":
            return protocol.ok(bye=True)
        if op == "metrics":
            return protocol.ok(metrics=self.metrics.snapshot())
        if op == "sql":
            statement = parse(str(request.get("q", "")))
            if isinstance(statement, ast.SelectStmt):
                return await self._loop.run_in_executor(
                    None, self._run_select, statement
                )
            return await self._commit((statement,), conn, txn_seq)
        if op == "txn":
            statements = request.get("statements")
            if not isinstance(statements, list) or not statements:
                raise ProtocolError("txn op needs a non-empty 'statements' list")
            return await self._commit(
                tuple(parse(str(s)) for s in statements), conn, txn_seq
            )
        raise ProtocolError(f"unknown op {op!r}")

    async def _commit(
        self, statements: tuple, conn: int, txn_seq: "itertools.count"
    ) -> dict[str, Any]:
        """Queue one transaction's statements and await the commit thread's
        reply (derivation runs there, in queue order)."""
        async with self._in_flight:
            reply = self._loop.create_future()
            self.committer.submit(
                StatementRider(f"__c{conn}_{next(txn_seq)}", statements),
                callback=functools.partial(self._reply, reply),
            )
            return await reply

    def _reply(self, reply: asyncio.Future, request: CommitRequest) -> None:
        """Completion callback, on the commit thread: build the response and
        hand it to the event loop."""
        if request.error is not None:
            outcome: Any = request.error
        elif not request.txn.updated_relations:
            outcome = protocol.ok(status="committed", empty=True)
        else:
            result = request.result
            outcome = protocol.ok(
                status="committed",
                batch=result.batch,
                violations=sorted(result.new_violations),
            )
        self._loop.call_soon_threadsafe(_settle, reply, outcome)

    # -- reads (in the executor) -------------------------------------------------

    def _run_select(self, statement: ast.SelectStmt) -> dict[str, Any]:
        expr = translate_query(statement, self.db)
        epoch = self.engine.pin_epoch()
        try:
            result, io = self.engine.select(expr, epoch=epoch)
        finally:
            self.engine.unpin_epoch(epoch)
        rows = sorted(result.expand())
        return protocol.ok(
            columns=list(expr.schema.names),
            rows=[list(row) for row in rows],
            io=io.total,
            epoch=epoch,
        )


def _settle(reply: asyncio.Future, outcome: Any) -> None:
    """Resolve ``reply`` on the loop, unless its connection gave up on it."""
    if reply.done():
        return
    if isinstance(outcome, BaseException):
        reply.set_exception(outcome)
    else:
        reply.set_result(outcome)


def run_server(
    host: str = "127.0.0.1",
    port: int = 0,
    policy: str = "immediate",
    durable_path: str | None = None,
    wal_sync: str | None = None,
    max_batch: int = 32,
    seed: int = 0,
) -> int:
    """Blocking entry point behind ``python -m repro serve``.

    Prints ``listening on HOST:PORT`` once bound (tests parse this line
    to find an ephemeral port), then serves until interrupted.
    """

    async def _main() -> None:
        server = ReproServer(
            host=host,
            port=port,
            policy=policy,
            durable_path=durable_path,
            wal_sync=wal_sync,
            max_batch=max_batch,
            seed=seed,
        )
        await server.start()
        print(f"listening on {server.host}:{server.port}", flush=True)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:  # pragma: no cover - shutdown race
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    return 0
