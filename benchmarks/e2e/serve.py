"""The benchmark's own server launcher (the system under test, as a subprocess).

``repro serve`` cannot set the data scale, so this builds the same
``ReproServer`` with ``n_depts`` / ``emps_per_dept`` and prints the same
``listening on HOST:PORT`` line, followed by one JSON line with the speed
reference as it read when set-up ended. The benchmark talks SQL to the socket; it
steers the launcher through one JSON command per line on stdin, answered by
one JSON line on stdout:

``{"cmd": "snap"}``    counters the wire protocol does not expose (CPU, peak
                       RSS, the simulated I/O ledger, pager stats, view sizes)
``{"cmd": "trace"}``   install the per-layer wrappers now (see layers.py)
``{"cmd": "dump", "path": P}``  verify the views, write the sidecar to ``P``
``{"cmd": "stop"}``    orderly shutdown

Closing stdin also stops the server, so it cannot outlive the benchmark.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def probe_speed(runs: list, every_s: float) -> None:
    """The speed reference inside the process under test: its interpreter half
    (what this server's work is), timed on this thread's own CPU clock (waiting
    for the interpreter lock does not count), ``every_s`` apart; ``runs`` gets
    (at ns, speed)."""
    from common import reference_speed

    while True:
        time.sleep(every_s)
        runs.append((time.perf_counter_ns(), reference_speed(time.thread_time_ns)))


def snapshot(server, recorder, speed: list) -> dict:
    from common import delta_rows, io_dict, peak_rss_mib, world_counts

    engine = server.engine
    times = os.times()
    batches = server.committer.batches
    out = {
        "cpu_s": times.user + times.system,
        "peak_rss_mib": peak_rss_mib(),
        "io": io_dict(engine.db.counter.snapshot()),
        "batches": len(batches),
        "batch_riders": sum(b.size for b in batches),
        "replays": sum(1 for b in batches if b.replayed),
        "metrics": server.metrics.snapshot(),
        "speed": list(speed),
    }
    out["view_tuples"], out["base_tuples"] = world_counts(engine)
    durable = engine.db.durable
    if durable is not None:
        out["pager"] = durable.stats.snapshot()
    if recorder is not None:
        out["trace"] = recorder.report()
        maintainer = engine.maintainer
        out["dag_groups"] = len(list(maintainer.memo.groups()))
        out["marking_size"] = len(maintainer.marking)
        rows_in = rows_out = 0
        for batch in batches:
            applied = [batch.batch_result] if batch.batch_result else batch.results
            for result in applied:
                rows_in += sum(delta_rows(d) for d in result.txn.deltas.values())
                rows_out += sum(delta_rows(d) for d in result.view_deltas.values())
        out["delta_rows_in"], out["delta_rows_out"] = rows_in, rows_out
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-depts", type=int, required=True)
    ap.add_argument("--emps-per-dept", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--policy", default="immediate")
    ap.add_argument("--durable", default=None)
    ap.add_argument("--wal-sync", default=None)
    ap.add_argument("--trace-setup", action="store_true")
    ap.add_argument("--speed-every", type=float, default=0.25, metavar="SECONDS")
    args = ap.parse_args()

    import common

    common.use_repo_sources()  # this checkout's repro, default configuration only
    from repro.server.server import ReproServer

    recorder = None
    if args.trace_setup:
        import layers

        recorder = layers.Recorder()
        layers.install(recorder, setup_only=True)

    async def serve() -> None:
        nonlocal recorder
        server = ReproServer(
            policy=args.policy,
            durable_path=args.durable,
            wal_sync=args.wal_sync,
            n_depts=args.n_depts,
            emps_per_dept=args.emps_per_dept,
            seed=args.seed,
        )
        await server.start()
        print(f"listening on {server.host}:{server.port}", flush=True)
        # Set-up ends with the banner; how fast the machine ran while it lasted
        # is measured here, in the process that did the work.
        print(json.dumps({"setup_speed": common.speed_now()}), flush=True)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        speed: list = []
        threading.Thread(
            target=probe_speed, args=(speed, args.speed_every), name="bench-speed", daemon=True
        ).start()

        def control() -> None:
            nonlocal recorder
            for line in sys.stdin:
                try:
                    command = json.loads(line)
                    cmd = command.get("cmd")
                    if cmd == "snap":
                        reply = snapshot(server, recorder, speed)
                    elif cmd == "trace":
                        import layers

                        if recorder is None:
                            recorder = layers.Recorder()
                        layers.install(recorder, db=server.db)
                        reply = {"ok": True}
                    elif cmd == "dump":
                        reply = snapshot(server, recorder, speed)
                        try:
                            with server.db.latch:
                                server.engine.maintainer.verify()
                            reply["views_verified"] = True
                        except Exception as exc:  # noqa: BLE001 - reported to the benchmark
                            reply["views_verified"] = False
                            reply["verify_error"] = repr(exc)[:500]
                        if recorder is not None:
                            reply["spans"] = recorder.spans()
                        Path(command["path"]).write_text(json.dumps(reply))
                        reply = {"ok": True, "views_verified": reply["views_verified"]}
                    elif cmd == "stop":
                        break
                    else:
                        reply = {"ok": False, "error": f"unknown command {cmd!r}"}
                except Exception as exc:  # noqa: BLE001 - the control channel must answer
                    reply = {"ok": False, "error": repr(exc)[:500]}
                print(json.dumps(reply), flush=True)
            loop.call_soon_threadsafe(stop.set)

        threading.Thread(target=control, name="bench-control", daemon=True).start()
        try:
            await stop.wait()
        finally:
            await server.stop()

    asyncio.run(serve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
