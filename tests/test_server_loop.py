"""The socket server in-process: writes derive on the commit thread and
the event loop never waits on a commit.

The server runs on its own event-loop thread; the clients are blocking
:class:`ReproClient` threads, as real clients would be.
"""

import asyncio
import logging
import sys
import threading
from contextlib import contextmanager

from repro.server.client import ReproClient
from repro.server.commit import CommitRequest
from repro.server.server import ReproServer

ROW = "emp00000_000"


@contextmanager
def running(server: ReproServer, debug: bool = False):
    """Serve ``server`` on a fresh event loop in a background thread."""
    loop = asyncio.new_event_loop()
    if debug:
        loop.set_debug(True)
        loop.slow_callback_duration = 0.05
    thread = threading.Thread(target=loop.run_forever, name="test-server-loop")
    thread.start()
    try:
        asyncio.run_coroutine_threadsafe(server.start(), loop).result(30)
        yield server
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(30)
        loop.close()


def _on_event_loop() -> bool:
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return False
    return True


class _WatchedLatch:
    """The storage latch, noting every acquisition made on an event loop."""

    def __init__(self, latch, waits: list[str]) -> None:
        self._latch = latch
        self._waits = waits

    def __enter__(self):
        if _on_event_loop():
            self._waits.append("storage latch acquired")
        return self._latch.__enter__()

    def __exit__(self, *exc):
        return self._latch.__exit__(*exc)


@contextmanager
def loop_waits(server: ReproServer, monkeypatch):
    """Record every call made on an event-loop thread that waits, or could
    wait, on the commit thread: a put into the full commit queue,
    ``CommitRequest.wait``, and the storage latch a commit holds through
    its fsync. The record reads no clock, so an empty one means no such
    call happened, however loaded the host."""
    waits: list[str] = []
    pending = server.committer._queue
    put = pending.put

    def watched_put(item, block=True, timeout=None):
        if block and _on_event_loop() and pending.full():
            waits.append("put into a full commit queue")
        return put(item, block, timeout)

    wait = CommitRequest.wait

    def watched_wait(request, timeout=None):
        if _on_event_loop():
            waits.append("CommitRequest.wait")
        return wait(request, timeout)

    monkeypatch.setattr(pending, "put", watched_put)
    monkeypatch.setattr(CommitRequest, "wait", watched_wait)
    monkeypatch.setattr(server.db, "latch", _WatchedLatch(server.db.latch, waits))
    yield waits


def _drive(port: int, statements: list[str], replies: list, errors: list) -> None:
    try:
        with ReproClient(port=port, timeout=30) as client:
            for sql in statements:
                replies.append(client.request({"op": "sql", "q": sql}))
    except Exception as exc:  # noqa: BLE001 - reported by the test
        errors.append(repr(exc))


def _run_clients(port: int, streams: list[list[str]]) -> list[dict]:
    replies: list[dict] = []
    errors: list[str] = []
    threads = [
        threading.Thread(target=_drive, args=(port, stream, replies, errors))
        for stream in streams
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    return replies


def _salary(port: int) -> int:
    with ReproClient(port=port) as client:
        [(salary,)] = client.query(f"SELECT Salary FROM Emp WHERE EName = '{ROW}'")
    return salary


class TestSameRowWriters:
    def test_concurrent_updates_of_one_row_all_commit(self):
        """Two connections raise one salary 200 times each. Each UPDATE is
        derived on the commit thread against the rows the writes ahead of it
        left, so none carries a stale modify: all 400 commit and the salary
        ends 400 higher."""
        server = ReproServer(n_depts=5, emps_per_dept=4, seed=3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the four threads finely
        try:
            with running(server):
                before = _salary(server.port)
                update = f"UPDATE Emp SET Salary = Salary + 1 WHERE EName = '{ROW}'"
                replies = _run_clients(server.port, [[update] * 200, [update] * 200])
                after = _salary(server.port)
                server.engine.maintainer.verify()
        finally:
            sys.setswitchinterval(interval)
        refused = [r for r in replies if not r.get("ok")]
        assert not refused, refused[:3]
        assert len(replies) == 400
        assert after == before + 400

    def test_failed_derivation_is_invalid_and_alone(self):
        server = ReproServer(n_depts=5, emps_per_dept=4, seed=3)
        with running(server):
            before = _salary(server.port)
            replies = _run_clients(
                server.port,
                [
                    [f"UPDATE Emp SET Salary = 'abc' WHERE EName = '{ROW}'"],
                    [f"UPDATE Emp SET Salary = Salary + 5 WHERE EName = '{ROW}'"],
                    [f"UPDATE Emp SET Salary = Salary WHERE EName = '{ROW}'"],
                ],
            )
            by_kind = sorted(
                (r.get("error") or ("empty" if r.get("empty") else r["status"]))
                for r in replies
            )
            assert by_kind == ["committed", "empty", "invalid"]
            assert _salary(server.port) == before + 5


class TestEventLoopNeverBlocks:
    def test_full_queue_awaits_instead_of_blocking(self, tmp_path, caplog):
        """A one-slot commit queue, one rider per batch and an fsync per
        commit, with eight writers: every write commits, and asyncio's debug
        mode reports no callback that held the loop for 50 ms."""
        server = ReproServer(
            n_depts=5,
            emps_per_dept=4,
            seed=3,
            durable_path=str(tmp_path / "db"),
            wal_sync="full",
            max_batch=1,
            queue_size=1,
        )
        caplog.set_level(logging.WARNING, logger="asyncio")
        with running(server, debug=True):
            streams = [
                [
                    f"INSERT INTO Emp VALUES ('w{client}_{i}', 'dept00001', 1)"
                    for i in range(10)
                ]
                for client in range(8)
            ]
            replies = _run_clients(server.port, streams)
        assert len(replies) == 80
        assert all(r.get("ok") and r["status"] == "committed" for r in replies)
        slow = [r.getMessage() for r in caplog.records if "took" in r.getMessage()]
        assert not slow, slow

    def test_loop_thread_never_waits_on_the_commit_thread(self, tmp_path, monkeypatch):
        """The same one-slot queue and fsync per commit, with readers beside
        the writers: no call on the loop thread waits on a primitive the
        commit thread holds or drains. Unlike the 50 ms check above, this
        fails on the first such call, however fast it returned."""
        server = ReproServer(
            n_depts=5,
            emps_per_dept=4,
            seed=3,
            durable_path=str(tmp_path / "db"),
            wal_sync="full",
            max_batch=1,
            queue_size=1,
        )
        with loop_waits(server, monkeypatch) as waits, running(server):
            writes = [
                [
                    f"INSERT INTO Emp VALUES ('w{client}_{i}', 'dept00001', 1)"
                    for i in range(10)
                ]
                for client in range(6)
            ]
            reads = [[f"SELECT Salary FROM Emp WHERE EName = '{ROW}'"] * 10] * 2
            replies = _run_clients(server.port, writes + reads)
        assert len(replies) == 80 and all(r.get("ok") for r in replies)
        assert not waits, sorted(set(waits))
