"""Server smoke: a real subprocess, concurrent clients over real sockets.

Two phases (mirroring the CI ``server-smoke`` job):

* eight concurrent clients drive a mixed workload — DML, multi-statement
  transactions, snapshot SELECTs, pings — and every response must be a
  well-formed protocol frame;
* under ``--durable --wal-sync full``, clients commit two-row atomic
  transactions until the server is SIGKILLed mid-stream; recovery must be
  commit-or-nothing *per transaction*: an acknowledged pair is fully
  present, an unacknowledged pair is all-or-nothing, and no pair is ever
  half-applied.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.server.client import ClientError, ReproClient

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _start_server(tmp_path, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    env.setdefault("PYTHONUNBUFFERED", "1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    deadline = time.monotonic() + 30
    line = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if "listening on" in line:
            break
        if proc.poll() is not None:
            raise RuntimeError(f"server died at startup: {line!r}")
    else:  # pragma: no cover - startup hang
        proc.kill()
        raise RuntimeError("server did not report its port in time")
    port = int(line.rsplit(":", 1)[1])
    return proc, port


def _stop(proc):
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(10)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck server
            proc.kill()
            proc.wait(10)
    proc.stdout.close()


class TestServerSmoke:
    def test_eight_concurrent_clients_mixed_workload(self, tmp_path):
        proc, port = _start_server(tmp_path)
        errors: list[str] = []
        lock = threading.Lock()

        def client(i):
            try:
                with ReproClient(port=port) as c:
                    assert isinstance(c.ping(), int)
                    for t in range(5):
                        r = c.execute(
                            f"INSERT INTO Emp VALUES ('smoke{i}_{t}', 'D1', 1)"
                        )
                        assert r["status"] == "committed"
                        assert r.get("batch") is None or isinstance(r["batch"], int)
                    rows = c.query(
                        f"SELECT EName FROM Emp WHERE EName = 'smoke{i}_0'"
                    )
                    assert rows == [(f"smoke{i}_0",)]
                    t = c.transaction(
                        [
                            f"INSERT INTO Emp VALUES ('pair{i}_a', 'D2', 1)",
                            f"INSERT INTO Emp VALUES ('pair{i}_b', 'D2', 1)",
                        ]
                    )
                    assert t["status"] == "committed"
                    metrics = c.metrics()
                    assert metrics.get("server.requests", 0) > 0
                    try:
                        c.execute("SELECT FROM nonsense !!")
                    except ClientError as exc:
                        assert exc.kind in ("invalid", "rejected")
                    else:  # pragma: no cover - server accepted garbage
                        raise AssertionError("malformed SQL was accepted")
            except Exception as exc:  # noqa: BLE001 - collected for the report
                with lock:
                    errors.append(f"client {i}: {exc!r}")

        try:
            threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not errors, errors
            # Every client's rows are visible to a fresh connection.
            with ReproClient(port=port) as c:
                for i in range(8):
                    assert c.query(
                        f"SELECT EName FROM Emp WHERE EName = 'smoke{i}_4'"
                    ) == [(f"smoke{i}_4",)]
        finally:
            _stop(proc)

    @pytest.mark.parametrize("policy", ["immediate", "enforce"])
    def test_sigkill_recovery_is_commit_or_nothing(self, tmp_path, policy):
        store = str(tmp_path / "store")
        proc, port = _start_server(
            tmp_path,
            "--durable",
            store,
            "--wal-sync",
            "full",
            "--policy",
            policy,
            "--max-batch",
            "8",
        )
        acked: list[int] = []
        lock = threading.Lock()
        stop = threading.Event()

        def client(i):
            try:
                c = ReproClient(port=port)
                for t in range(1000):
                    if stop.is_set():
                        return
                    c.transaction(
                        [
                            f"INSERT INTO Emp VALUES ('k{i}_{t}_a', 'D1', 1)",
                            f"INSERT INTO Emp VALUES ('k{i}_{t}_b', 'D2', 1)",
                        ]
                    )
                    with lock:
                        acked.append(i * 10_000 + t)
            except (ConnectionError, OSError, ClientError):
                return  # the kill landed mid-request: expected

        threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        # Let some batches commit, then kill the server mid-stream.
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline and len(acked) < 12:
            time.sleep(0.05)
        os.kill(proc.pid, signal.SIGKILL)
        stop.set()
        for t in threads:
            t.join(30)
        proc.wait(30)
        proc.stdout.close()
        assert len(acked) >= 12, "server died before committing enough batches"

        from repro.storage.database import Database

        db = Database(durable_path=store)
        assert db.recovered
        emps = {row[0] for row in db.relation("Emp").contents().rows()}
        # Acked ⇒ both rows durable. Every pair (acked or not) is
        # all-or-nothing: a half-applied transaction is the one outcome
        # recovery may never produce.
        for key in acked:
            i, t = divmod(key, 10_000)
            assert f"k{i}_{t}_a" in emps and f"k{i}_{t}_b" in emps
        for i in range(4):
            for t in range(1000):
                a, b = f"k{i}_{t}_a" in emps, f"k{i}_{t}_b" in emps
                assert a == b, f"half-applied transaction k{i}_{t}"
        db.close()
