"""The asyncio socket server: many clients, one engine, one committer.

Connections are cheap asyncio tasks; every write funnels into the
:class:`~repro.server.commit.GroupCommitter`'s bounded queue (blocking
work — the commit wait, delta derivation under the storage latch — runs
in the default executor so the event loop never stalls on the engine).
Reads pin an epoch and run as snapshot selects, so a long SELECT neither
blocks nor is torn by concurrent group commits.

``python -m repro serve`` wraps :func:`run_server`.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any

from repro.constraints.assertions import AssertionViolation
from repro.engine.engine import EngineError
from repro.ivm.deferred import compose_relations
from repro.ivm.maintainer import MaintenanceError
from repro.obs.metrics import get_metrics
from repro.server import protocol
from repro.server.commit import GroupCommitter
from repro.server.protocol import ProtocolError
from repro.shell import corporate_world
from repro.sql import ast
from repro.sql.dml import dml_to_delta, is_dml
from repro.sql.lexer import SQLSyntaxError
from repro.sql.parser import parse
from repro.sql.translate import SQLTranslationError, _translate_select
from repro.storage.relation import StorageError
from repro.workload.paperdb import DEPT_SCHEMA, EMP_SCHEMA
from repro.workload.transactions import Transaction

#: Exceptions reported as the client's fault (``error: "invalid"``).
_INVALID = (
    ProtocolError,
    SQLSyntaxError,
    SQLTranslationError,
    StorageError,
    EngineError,
    MaintenanceError,
    ValueError,
    KeyError,
    TypeError,
)


class ReproServer:
    """A maintained corporate database behind a TCP listener.

    Builds the same world as the shell — the paper's corporate data with
    the DeptConstraint assertion — an engine under the requested policy,
    and a started :class:`GroupCommitter`. ``port=0`` binds an ephemeral
    port (read it back from ``self.port`` after :meth:`start`).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        policy: str = "immediate",
        batch_size: int | None = None,
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
        self.metrics = get_metrics()
        self.db, _system, self.engine = corporate_world(
            policy,
            batch_size=batch_size,
            n_depts=n_depts,
            emps_per_dept=emps_per_dept,
            seed=seed,
            durable_path=durable_path,
            wal_sync=wal_sync,
        )
        self.policy = policy
        self._schemas = {"Dept": DEPT_SCHEMA, "Emp": EMP_SCHEMA}
        self.committer = GroupCommitter(
            self.engine, max_batch=max_batch, queue_size=queue_size
        )
        self._conn_ids = itertools.count(1)
        self._server: asyncio.base_events.Server | None = None

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the commit thread."""
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
        """Close the listener, drain the commit queue, flush, checkpoint."""
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
        loop = asyncio.get_running_loop()
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
                    request = protocol.decode(line)
                    # Engine work (parse, latch, commit wait) stays off the
                    # event loop: other connections keep multiplexing while
                    # this one's request runs in the executor.
                    response = await loop.run_in_executor(
                        None, self._dispatch, request, conn, txn_seq
                    )
                except AssertionViolation as exc:
                    self.metrics.counter("server.rejected").inc()
                    response = protocol.error("rejected", str(exc))
                except _INVALID as exc:
                    self.metrics.counter("server.errors").inc()
                    response = protocol.error("invalid", str(exc))
                except Exception as exc:  # noqa: BLE001 - connection boundary
                    self.metrics.counter("server.errors").inc()
                    response = protocol.error("internal", repr(exc))
                writer.write(protocol.encode(response))
                await writer.drain()
                if request_is_quit(response):
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - peer reset
                pass

    # -- request dispatch (runs in the executor) ---------------------------------

    def _dispatch(
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
            return self._run_sql(str(request.get("q", "")), conn, txn_seq)
        if op == "txn":
            statements = request.get("statements")
            if not isinstance(statements, list) or not statements:
                raise ProtocolError("txn op needs a non-empty 'statements' list")
            return self._run_txn([str(s) for s in statements], conn, txn_seq)
        raise ProtocolError(f"unknown op {op!r}")

    def _run_sql(
        self, text: str, conn: int, txn_seq: "itertools.count"
    ) -> dict[str, Any]:
        statement = parse(text)
        if is_dml(statement):
            return self._commit([statement], conn, txn_seq)
        if isinstance(statement, ast.SelectStmt):
            return self._run_select(statement)
        raise ProtocolError("only SELECT and DML statements are supported")

    def _run_txn(
        self, statements: list[str], conn: int, txn_seq: "itertools.count"
    ) -> dict[str, Any]:
        parsed = [parse(s) for s in statements]
        for statement in parsed:
            if not is_dml(statement):
                raise ProtocolError("txn op accepts DML statements only")
        return self._commit(parsed, conn, txn_seq)

    def _commit(
        self, statements: list, conn: int, txn_seq: "itertools.count"
    ) -> dict[str, Any]:
        """Derive deltas, submit one transaction, wait for its batch."""
        # UPDATE/DELETE row sets are derived from current contents, so the
        # derivation must see a consistent state: take the storage latch
        # for the whole read.
        with self.db.latch:
            steps = [dict([dml_to_delta(s, self.db)]) for s in statements]
        # One client's statements compose here, on the executor thread; the
        # commit thread's compose_batch then folds whole client
        # transactions into a batch.
        deltas = compose_relations(self.db, steps)
        if not deltas:
            return protocol.ok(status="committed", empty=True)
        txn = Transaction(f"__c{conn}_{next(txn_seq)}", deltas)
        result = self.committer.execute(txn)
        return protocol.ok(
            status="deferred" if result.deferred else "committed",
            batch=result.batch,
            violations=sorted(result.new_violations),
        )

    def _run_select(self, statement: ast.SelectStmt) -> dict[str, Any]:
        expr = _translate_select(statement, self._schemas, ())
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


def request_is_quit(response: dict[str, Any]) -> bool:
    return bool(response.get("bye"))


def run_server(
    host: str = "127.0.0.1",
    port: int = 0,
    policy: str = "immediate",
    batch_size: int | None = None,
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
            batch_size=batch_size,
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
