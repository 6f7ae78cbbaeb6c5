"""Socket workloads: SQL text → socket → group commit → IVM → storage → WAL → reply.

The system under test is a server subprocess (``serve.py``); this process is
the load generator: ``CLIENTS`` closed-loop threads, each with its own
``ReproClient`` and its own department slice.
"""

from __future__ import annotations

import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, perf_counter_ns

from common import (
    CLIENTS,
    HERE,
    OUT,
    SETUPS,
    Block,
    Scale,
    median,
    metric,
    setup_metric,
    timing_metrics,
)
from gen import BUDGET_RANGE, E1Client, E1Mix, e1_final_state

MIXES = {
    # Point reads and writes, uniform keys, nothing durable, nothing rejected.
    "e1_point_mem": E1Mix(read_share=0.2, read_kind="emp_row"),
    # Reads beside writes on a durable, enforcing server with hot departments.
    "e1_mixed_durable": E1Mix(
        read_share=0.4, read_kind="dept_sum", hot_share=0.8, hot_depts=0.2,
        zero_budget_share=0.05, enforce=True,
    ),
}
#: operations generated per client and second of run — far more than the
#: seed commit serves (≈ 100/s), so a much faster commit still has work
OPS_PER_CLIENT_SECOND = 1500
REPLY_TIMEOUT_S = 60.0


class ServerProcess:
    """``serve.py`` as a child: readiness, the stdin control channel, death."""

    def __init__(self, scale: Scale, seed: int, mix: E1Mix, durable: Path | None, trace: bool):
        argv = [
            sys.executable, str(HERE / "serve.py"),
            "--n-depts", str(scale.n_depts), "--emps-per-dept", str(scale.emps_per_dept),
            "--seed", str(seed), "--policy", "enforce" if mix.enforce else "immediate",
            "--speed-every", str(scale.block_s / 4),
        ]
        if durable is not None:
            argv += ["--durable", str(durable), "--wal-sync", "full"]
        if trace:
            argv.append("--trace-setup")
        self.spawned = perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        self.port = 0
        self.setup: tuple[float, float] = (0.0, 0.0)  # seconds, speed reference

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _line(self) -> str:
        line = self._lines.get(timeout=REPLY_TIMEOUT_S)
        if line is None:
            raise RuntimeError(f"server exited with code {self.proc.wait()}")
        return line

    def wait_ready(self) -> None:
        """Set-up is spawn → listener bound, as this process sees it."""
        line = self._line()
        seconds = perf_counter() - self.spawned
        if not line.startswith("listening on "):
            raise RuntimeError(f"unexpected server banner {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        self.setup = (seconds, json.loads(self._line())["setup_speed"])

    def command(self, **command) -> dict:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        return json.loads(self._line())

    def close(self, kill: bool = False) -> None:
        """Stop (or SIGKILL) the child and wait until it has ended."""
        if self.proc.poll() is None:
            if kill:
                self.proc.send_signal(signal.SIGKILL)
            else:
                try:
                    self.proc.stdin.write('{"cmd": "stop"}\n')
                    self.proc.stdin.close()
                except OSError:
                    pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        self._reader.join(timeout=5)


def _matches(response: dict, expect: str, payload) -> bool:
    if expect == "committed":
        return bool(response.get("ok")) and response.get("status") == "committed"
    if expect == "rejected":
        return not response.get("ok") and response.get("error") == "rejected"
    return bool(response.get("ok")) and response.get("rows") == payload


class ClientRun:
    """One client thread's progress through its operation list."""

    def __init__(self, cid: int, port: int, ops: list[tuple]) -> None:
        from repro.server.client import ReproClient

        self.cid = cid
        self.ops = ops
        self.client = ReproClient("127.0.0.1", port, timeout=REPLY_TIMEOUT_S)
        self.next = 0
        #: (seq, kind, expect, sent at ns, round trip ns, outcome as expected)
        self.samples: list[tuple[int, str, str, int, int, bool]] = []
        self.error: str | None = None

    def run(self, limit: int | None, deadline: float) -> None:
        """Closed loop: send, wait for the reply, check it, send the next —
        for ``limit`` operations or until ``deadline``."""
        ops, request, samples = self.ops, self.client.request, self.samples
        stop_at = len(ops) if limit is None else min(len(ops), self.next + limit)
        while self.next < stop_at and perf_counter() < deadline:
            seq = self.next
            kind, sql, expect, payload, _effect = ops[seq]
            message = {"op": "sql", "q": sql, "id": f"{self.cid}:{seq}"}
            started = perf_counter_ns()
            try:
                response = request(message)
            except Exception as exc:  # noqa: BLE001 - a dead connection fails the run
                self.error = repr(exc)
                samples.append((seq, kind, expect, started, perf_counter_ns() - started, False))
                self.next = seq + 1
                return
            elapsed = perf_counter_ns() - started
            samples.append(
                (seq, kind, expect, started, elapsed, _matches(response, expect, payload))
            )
            self.next = seq + 1


def _cpu_seconds(pid: int) -> float:
    """user+sys CPU of another process, from /proc (10 ms ticks)."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Phase:
    """All clients in parallel, each for ``ops`` operations or until
    ``seconds`` have passed. This thread meanwhile reads the server's CPU
    clock once a block: ``ticks`` are the block boundaries."""

    def __init__(
        self, runs: list[ClientRun], pid: int, block_s: float, ops: int | None = None,
        seconds: float = float("inf"),
    ) -> None:
        marks = [len(r.samples) for r in runs]
        started = perf_counter()
        #: (at ns, the server's CPU seconds so far)
        self.ticks = [(perf_counter_ns(), _cpu_seconds(pid))]
        threads = [
            threading.Thread(target=r.run, args=(ops, started + seconds), name=f"client-{r.cid}")
            for r in runs
        ]
        for t in threads:
            t.start()
        while threads:
            threads[0].join(timeout=max(0.0, self.ticks[-1][0] / 1e9 + block_s - perf_counter()))
            if threads[0].is_alive():
                self.ticks.append((perf_counter_ns(), _cpu_seconds(pid)))
            else:
                threads.pop(0)
        self.ticks.append((perf_counter_ns(), _cpu_seconds(pid)))
        self.wall = perf_counter() - started
        #: (client, seq, kind, expect, sent at ns, round trip ns, as expected)
        self.samples = [(r.cid, *s) for r, mark in zip(runs, marks) for s in r.samples[mark:]]

    def blocks(self, speed: list[list[int]], block_s: float) -> list[Block]:
        """The phase cut at its ticks; an operation belongs to the block its
        reply arrived in, a run of the speed reference (``speed``, from the
        server: at ns, speed) to the block it ended in. The stub the phase
        ended on is left out."""
        out = []
        for (start, cpu_start), (end, cpu_end) in zip(self.ticks, self.ticks[1:]):
            if end - start < block_s * 0.5e9:
                continue
            done = [s for s in self.samples if start <= s[4] + s[5] < end]
            out.append(
                Block(
                    wall_s=(end - start) / 1e9,
                    cpu_s=cpu_end - cpu_start,
                    rows=sum(1 for s in done if s[3] == "committed" and s[6]),
                    write_ms=[s[5] / 1e6 for s in done if s[2] == "write"],
                    read_ms=[s[5] / 1e6 for s in done if s[2] == "read"],
                    speeds=[ran for at, ran in speed if start <= at < end],
                )
            )
        return out


def _path_gaps(samples: list[tuple], spans: list[dict]) -> dict[str, float]:
    """Mean ns a request spent between the spans on its path, over the
    operations whose spans were kept: client send → ``decode`` on the event
    loop (ingress), ``decode`` → ``parse`` on an executor thread (hop), reply
    built there → ``encode`` on the event loop (reply hop), ``encode`` →
    client has the reply (egress). Both processes read CLOCK_MONOTONIC, so
    the two sides' timestamps compare."""
    on_loop: dict[str, list[dict]] = {}  # op -> its decode span, its encode span
    parse: dict[str, int] = {}
    built: dict[str, int] = {}
    for span in spans:  # in start order
        op = span["op"]
        if op is None:
            continue
        if span["name"] == "server.protocol":
            if span["thread"] == "MainThread":
                on_loop.setdefault(op, []).append(span)
            else:
                built[op] = span["end_ns"]
        elif span["name"] == "sql.parse":
            parse.setdefault(op, span["start_ns"])
    gaps: dict[str, list[int]] = {"ingress": [], "hop": [], "reply_hop": [], "egress": []}
    for cid, seq, _kind, _expect, sent, rtt, _ok in samples:
        op = f"{cid}:{seq}"
        if len(on_loop.get(op, ())) == 2 and op in parse and op in built:
            decode, encode = on_loop[op]
            gaps["ingress"].append(decode["start_ns"] - sent)
            gaps["hop"].append(parse[op] - decode["end_ns"])
            gaps["reply_hop"].append(encode["start_ns"] - built[op])
            gaps["egress"].append(sent + rtt - encode["end_ns"])
    return {k: sum(v) / len(v) if v else 0.0 for k, v in gaps.items()}


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_socket(name: str, seed: int, seconds: float, trace: bool, scale: Scale) -> dict:
    from repro.workload.paperdb import generate_corporate_db

    mix = MIXES[name]
    work = OUT / f"tmp-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    data_dir = work / "db" if name == "e1_mixed_durable" else None
    server: ServerProcess | None = None
    runs: list[ClientRun] = []
    setups: list[tuple[float, float]] = []
    try:
        # The last server set up is the one measured; the others only time
        # their set-up (each on a fresh directory) and are stopped.
        while True:
            server = ServerProcess(scale, seed, mix, data_dir, trace)
            server.wait_ready()
            setups.append(server.setup)
            if trace or len(setups) == SETUPS:
                break
            server.close(kill=True)
            if data_dir is not None:
                shutil.rmtree(data_dir, ignore_errors=True)

        data = generate_corporate_db(
            scale.n_depts, scale.emps_per_dept, seed=seed, budget_range=BUDGET_RANGE
        )
        n_ops = scale.warmup_ops + scale.socket_prefix + int(seconds * OPS_PER_CLIENT_SECOND)
        generators = [E1Client(c, CLIENTS, data, mix, seed) for c in range(CLIENTS)]
        runs = [ClientRun(c, server.port, g.generate(n_ops)) for c, g in enumerate(generators)]

        pid = server.proc.pid
        block_s = scale.block_s
        Phase(runs, pid, block_s, ops=scale.warmup_ops)  # plan caches fill, connections open
        untraced: list = []
        if trace:
            # A stretch without wrappers first, so the traced stretch has
            # something to be compared with (obs.trace_overhead_ratio).
            untraced = Phase(runs, pid, block_s, seconds=seconds * 0.3).samples
            server.command(cmd="trace")
            seconds *= 0.7
        # The window opens with a fixed number of operations per client, at
        # the end of which the counts and the space are read: they must not
        # depend on how many operations the machine serves in --seconds.
        before = server.command(cmd="snap")
        counted = Phase(runs, pid, block_s, ops=scale.socket_prefix)
        at_prefix = server.command(cmd="snap")
        timed = Phase(runs, pid, block_s, seconds=seconds - counted.wall)
        after = server.command(cmd="snap")
        samples = counted.samples + timed.samples
        blocks = counted.blocks(after["speed"], block_s) + timed.blocks(after["speed"], block_s)

        # -- correctness: replies, final rows over the wire, views, recovery --------
        failed = sum(1 for s in samples + untraced if not s[6])
        problems = [r.error for r in runs if r.error]
        executed = [r.ops[: r.next] for r in runs]
        want_emp, want_dept = e1_final_state(data, executed)
        reader = runs[0].client
        got_emp = set(reader.query("SELECT EName, DName, Salary FROM Emp"))
        got_dept = set(reader.query("SELECT DName, MName, Budget FROM Dept"))
        if got_emp != want_emp:
            problems.append(f"Emp differs from the oracle in {len(got_emp ^ want_emp)} rows")
        if got_dept != want_dept:
            problems.append(f"Dept differs from the oracle in {len(got_dept ^ want_dept)} rows")
        for r in runs:
            r.client.close()
        runs = []
        sidecar_path = work / "sidecar.json"
        dumped = server.command(cmd="dump", path=str(sidecar_path))
        sidecar = json.loads(sidecar_path.read_text())
        if not dumped.get("views_verified"):
            problems.append(f"views diverged: {sidecar.get('verify_error')}")

        recovery_s = 0.0
        disk_ratio = 0.0
        if data_dir is not None:
            server.close(kill=True)  # after the last ack: no orderly checkpoint
            disk = _dir_bytes(data_dir)
            from repro.storage.database import Database
            from repro.storage.pager import pack_record

            disk_ratio = disk / sum(len(pack_record(row)) for row in want_emp | want_dept)

            started = perf_counter()
            reopened = Database(durable_path=str(data_dir))
            recovery_s = perf_counter() - started
            try:
                if set(reopened.relation("Emp").contents().expand()) != want_emp:
                    problems.append("recovered Emp is not the acknowledged state")
                if set(reopened.relation("Dept").contents().expand()) != want_dept:
                    problems.append("recovered Dept is not the acknowledged state")
                views = sum(
                    rel.row_count for rel in reopened if rel.name.startswith("_view_")
                )
                if views != sidecar["view_tuples"]:
                    problems.append(
                        f"recovered views hold {views} tuples, sidecar says "
                        f"{sidecar['view_tuples']}"
                    )
            finally:
                reopened.close()
    finally:
        for r in runs:
            try:
                r.client.close()
            except OSError:
                pass
        if server is not None:
            server.close(kill=True)
        shutil.rmtree(work, ignore_errors=True)

    committed = sum(1 for s in samples if s[3] == "committed" and s[6])
    prefix_committed = sum(1 for s in counted.samples if s[3] == "committed" and s[6])
    timings = timing_metrics(name, blocks)
    result = {
        "attempted": len(samples) + len(untraced),
        "failed": failed,
        "problems": problems,
        "samples": {
            "writes": sum(1 for s in samples if s[2] == "write"),
            "reads": sum(1 for s in samples if s[2] == "read"),
            "window_s": counted.wall + timed.wall,
            "blocks": len(blocks),
            "speed": median(b.speed for b in blocks if b.speeds) if timings else 0.0,
            "setups": setups,
        },
    }
    if not timings or not prefix_committed:
        result["problems"].append("no block of the window held reads, writes and reference runs")
        return result
    result["end_to_end"] = {
        "setup_s": setup_metric(setups),
        **timings,
        "page_io_per_txn": metric(
            (at_prefix["io"]["total"] - before["io"]["total"]) / prefix_committed, "pages"
        ),
        "peak_rss_mb": metric(at_prefix["peak_rss_mib"], "MiB"),
        "view_space_ratio": metric(at_prefix["view_tuples"] / at_prefix["base_tuples"], "ratio"),
    }
    if trace:
        untraced_ms = [s[5] / 1e6 for s in untraced]
        spans = sidecar.get("spans", [])
        result["traced"] = {
            "report": after["trace"],  # wrappers' totals when the window closed
            "spans": spans,
            "before": before,
            "after": after,
            "io": {k: after["io"][k] - before["io"][k] for k in after["io"]},
            "ops": len(samples),
            "committed": committed,
            "rtt_ns": sum(s[5] for s in samples),
            "gaps_ns": _path_gaps(samples, spans),
            "overhead_ratio": (
                median([s[5] / 1e6 for s in samples]) / median(untraced_ms)
                if untraced_ms else 0.0
            ),
            "recovery_s": recovery_s,
            "disk_ratio": disk_ratio,
        }
    return result
