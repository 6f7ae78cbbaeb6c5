"""End-to-end + per-layer benchmark runner (see README.md in this directory).

One pass of one workload — the form ``BENCHMARK.json`` names::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

prints every metric by name with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Everything at once::

    python3 benchmarks/e2e/run.py --seed N [--workload W] [--smoke] [--variant k=v ...]

runs each workload untraced, then traced, repeats the two batch workloads
to assert that their exact counts repeat, and writes ``out/result.json``
with an environment fingerprint. Exit status is non-zero when a
correctness gate trips or an operation's outcome is not the expected one.
"""

from __future__ import annotations

import time

_PROCESS_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from common import BATCH_WORKLOADS, OUT, SPEC, WORKLOADS, metric, topology  # noqa: E402

VARIANTS = {"backend": ("interpreted", "columnar"), "shards": ("4",), "commit_cache": ("off",)}
EXACT_ON_BATCH = ("page_io_per_txn", "view_space_ratio")


# -- per-layer metrics from one traced pass ---------------------------------------------


def per_layer_metrics(name: str, traced: dict) -> dict[str, dict]:
    """The per-layer table of one traced pass (README, "Per-layer metrics").

    ``*_us`` is self time per operation on socket workloads and per
    transaction (with the read that follows it) on batch workloads, so the
    ``*_us`` rows plus ``server.unattributed_us`` sum to the mean time a
    caller waited. ``*_per_txn`` is per committed transaction.
    """
    socket = name in common.SOCKET_WORKLOADS
    if socket:
        after, before = traced["after"], traced["before"]
        per_op = traced["ops"]
        txns = traced["committed"]
        observed_ns = traced["rtt_ns"]
        gauges = after["metrics"]
        pager = {
            k: v - before.get("pager", {}).get(k, 0) for k, v in after.get("pager", {}).items()
        }
        batches = after["batches"] - before["batches"]
        riders = after["batch_riders"] - before["batch_riders"]
        # Cache counters reach the registry as cumulative gauges.
        stats = {
            key: gauges.get(gauge, 0) - before["metrics"].get(gauge, 0)
            for key, gauge in (
                ("commit_hits", "cache.commit.hits"), ("commit_misses", "cache.commit.misses"),
                ("commit_io_saved", "cache.commit.io_saved"),
                ("adhoc_hits", "cache.adhoc_plan.hits"),
                ("adhoc_misses", "cache.adhoc_plan.misses"),
                ("plan_hits", "cache.plan.hits"), ("plan_misses", "cache.plan.misses"),
                ("columnar_fallbacks", "columnar.fallback"),
            )
        }
        rejected = gauges.get("engine.rejected", 0) - before["metrics"].get("engine.rejected", 0)
        rows_in = after["delta_rows_in"] - before.get("delta_rows_in", 0)
        rows_out = after["delta_rows_out"] - before.get("delta_rows_out", 0)
        setup_counts = traced["report"]["counts"]
        estimated = setup_counts.get("cost.estimated_io_milli", 0) / 1000.0
        considered = setup_counts.get("core.view_sets_considered", 0)
        dag_groups, marking = after["dag_groups"], after["marking_size"]
        phases = None
    else:
        per_op = txns = traced["txns"]
        observed_ns = traced["wall_ns"]
        pager = {}
        batches = riders = 0
        stats = traced["cache_stats"]
        rejected = 0
        rows_in, rows_out = traced["rows_in"], traced["rows_out"]
        estimated = traced["estimated_io_per_txn"]
        considered = traced["view_sets_considered"]
        dag_groups, marking = traced["dag_groups"], traced["marking_size"]
        phases = traced["phases"]
    report = traced["report"]
    layers, counts, by_thread = report["layers"], report["counts"], report["self_ns_by_thread"]
    io = traced["io"]

    def self_ns(layer: str) -> int:
        return layers.get(layer, {}).get("self_ns", 0)

    def us(layer: str) -> float:
        return self_ns(layer) / 1e3 / per_op

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def seconds(layer: str, phase: str) -> float:
        return phases[phase] if phases is not None else self_ns(layer) / 1e9

    committer_ns = by_thread.get("repro-group-commit", 0)
    # What the caller waited for: every span on the path of a request — the
    # commit wait stands for the commit thread's work, which it overlaps.
    on_path_ns = sum(by_thread.values()) - committer_ns
    measured_io = ratio(io["total"], txns)
    gaps_us = {k: v / 1e3 for k, v in traced.get("gaps_ns", {}).items()}
    m = {
        "server.protocol.self_us": metric(us("server.protocol"), "us"),
        "server.commit.queue_wait_us": metric(
            max(0.0, (self_ns("server.commit.wait") - committer_ns) / 1e3 / per_op)
            if socket else 0.0, "us",
        ),
        "server.commit.batch_size_mean": metric(ratio(riders, batches), "count"),
        "server.commit.replays": metric(
            (traced["after"]["replays"] - traced["before"]["replays"]) if socket else 0, "count"
        ),
        "server.commit.compose_self_us": metric(us("server.commit.compose"), "us"),
        "server.ingress_wait_us": metric(gaps_us.get("ingress", 0.0), "us"),
        "server.executor_hop_us": metric(gaps_us.get("hop", 0.0), "us"),
        "server.reply_hop_us": metric(gaps_us.get("reply_hop", 0.0), "us"),
        "server.egress_wait_us": metric(gaps_us.get("egress", 0.0), "us"),
        "server.unattributed_us": metric(
            (observed_ns - on_path_ns) / 1e3 / per_op - sum(gaps_us.values()), "us"
        ),
        "sql.parse.self_us": metric(us("sql.parse"), "us"),
        "sql.dml_to_delta.self_us": metric(us("sql.dml_to_delta"), "us"),
        "sql.dml_to_delta.rows_examined_per_row_changed": metric(
            ratio(
                counts.get("sql.dml_to_delta.rows_examined", 0),
                counts.get("sql.dml_to_delta.rows_changed", 0),
            ), "ratio",
        ),
        "engine.execute.self_us": metric(us("engine.execute"), "us"),
        "engine.rollback.self_us": metric(us("engine.rollback"), "us"),
        "engine.rejected": metric(rejected, "count"),
        "engine.select.self_us": metric(us("engine.select"), "us"),
        "engine.select.rows_copied_per_read": metric(
            ratio(counts.get("engine.select.rows_copied", 0), counts.get("engine.select.calls", 0)),
            "count",
        ),
        "engine.select.inverses_replayed_per_read": metric(
            ratio(
                counts.get("engine.select.inverses_replayed", 0),
                counts.get("engine.select.calls", 0),
            ), "count",
        ),
        "constraints.check.self_us": metric(us("constraints.check"), "us"),
        "ivm.apply.self_us": metric(us("ivm.apply"), "us"),
        "ivm.choose_track.self_us": metric(us("ivm.choose_track"), "us"),
        "ivm.plan_cache.hit_rate": metric(
            ratio(stats["adhoc_hits"], stats["adhoc_hits"] + stats["adhoc_misses"]), "ratio"
        ),
        "ivm.propagate.self_us": metric(us("ivm.propagate"), "us"),
        "ivm.delta_rows_out_per_row_in": metric(ratio(rows_out, rows_in), "ratio"),
        "ivm.fetch.self_us": metric(us("ivm.fetch"), "us"),
        "ivm.fetch.calls_per_txn": metric(
            ratio(layers.get("ivm.fetch", {}).get("calls", 0), txns), "count"
        ),
        "ivm.fetch.keys_per_txn": metric(ratio(counts.get("ivm.fetch.keys", 0), txns), "count"),
        "ivm.commit_cache.hit_rate": metric(
            ratio(stats["commit_hits"], stats["commit_hits"] + stats["commit_misses"]), "ratio"
        ),
        "ivm.commit_cache.io_saved_per_txn": metric(ratio(stats["commit_io_saved"], txns), "pages"),
        "algebra.evaluate.self_us": metric(us("algebra.evaluate"), "us"),
        "algebra.plan_cache.hit_rate": metric(
            ratio(stats["plan_hits"], stats["plan_hits"] + stats["plan_misses"]), "ratio"
        ),
        "algebra.columnar.fallbacks": metric(stats["columnar_fallbacks"], "count"),
        "storage.relation.apply_delta.self_us": metric(us("storage.relation.apply_delta"), "us"),
        "storage.relation.apply_delta.rows_per_txn": metric(
            ratio(counts.get("storage.relation.apply_delta.rows", 0), txns), "count"
        ),
        "storage.relation.apply_delta.calls_per_txn": metric(
            ratio(layers.get("storage.relation.apply_delta", {}).get("calls", 0), txns), "count"
        ),
        "storage.relation.lookup.self_us": metric(us("storage.relation.lookup"), "us"),
        "storage.relation.lookup.keys_per_txn": metric(
            ratio(counts.get("storage.relation.lookup.keys", 0), txns), "count"
        ),
        "storage.latch.wait_us": metric(us("storage.latch.wait"), "us"),
        "storage.io.index_reads_per_txn": metric(ratio(io["index_reads"], txns), "pages"),
        "storage.io.index_writes_per_txn": metric(ratio(io["index_writes"], txns), "pages"),
        "storage.io.tuple_reads_per_txn": metric(ratio(io["tuple_reads"], txns), "pages"),
        "storage.io.tuple_writes_per_txn": metric(ratio(io["tuple_writes"], txns), "pages"),
        "storage.durable.commit.self_us": metric(us("storage.durable.commit"), "us"),
        "storage.wal.append.self_us": metric(us("storage.wal.append"), "us"),
        "storage.wal.sync.self_us": metric(us("storage.wal.sync"), "us"),
        "storage.wal.fsyncs_per_txn": metric(ratio(pager.get("fsyncs", 0), txns), "count"),
        "storage.wal.bytes_per_txn": metric(ratio(pager.get("wal_bytes", 0), txns), "bytes"),
        "storage.durable.pool_hit_rate": metric(
            ratio(pager.get("pool_hits", 0), pager.get("pool_hits", 0) + pager.get("pool_misses", 0)),
            "ratio",
        ),
        "storage.durable.pages_written_per_txn": metric(
            ratio(pager.get("page_writes", 0), txns), "pages"
        ),
        "storage.durable.checkpoints": metric(pager.get("checkpoints", 0), "count"),
        "storage.durable.checkpoint_s_total": metric(
            layers.get("storage.durable.checkpoint", {}).get("inclusive_ns", 0) / 1e9, "s"
        ),
        "storage.durable.recovery_s": metric(traced.get("recovery_s", 0.0), "s"),
        "storage.durable.disk_bytes_per_user_byte": metric(traced.get("disk_ratio", 0.0), "ratio"),
        "workload.load_s": metric(seconds("workload.load", "workload.load_s"), "s"),
        "dag.build_s": metric(seconds("dag.build", "dag.build_s"), "s"),
        "dag.groups": metric(dag_groups, "count"),
        "core.optimize_s": metric(seconds("core.optimize", "core.optimize_s"), "s"),
        "core.view_sets_considered": metric(considered, "count"),
        "core.marking_size": metric(marking, "count"),
        "ivm.materialize_s": metric(seconds("ivm.materialize", "ivm.materialize_s"), "s"),
        "cost.estimated_io_per_txn": metric(estimated, "pages"),
        "cost.drift_ratio": metric(ratio(measured_io, estimated), "ratio"),
        "obs.trace_overhead_ratio": metric(traced["overhead_ratio"], "ratio"),
    }
    return m


def attributed_share(metrics: dict[str, dict]) -> float:
    """Share of the time a caller waited that named layers account for."""
    named = sum(
        v["value"] for k, v in metrics.items()
        if k.endswith("_us") and k != "server.unattributed_us"
    )
    total = named + metrics["server.unattributed_us"]["value"]
    return named / total if total else 0.0


# -- one pass --------------------------------------------------------------------------


def batch_setups(args: argparse.Namespace) -> list[tuple[float, float]]:
    """Further set-ups of a batch world, each in a fresh process
    (``--setup-only``): (seconds, speed reference) of each."""
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only", *(["--smoke"] if args.smoke else []),
        *(arg for spec in args.variant for arg in ("--variant", spec)),
    ]
    return [
        tuple(json.loads(subprocess.run(
            argv, capture_output=True, text=True, timeout=170, check=True
        ).stdout))
        for _ in range(common.SETUPS - 1)
    ]


def one_pass(args: argparse.Namespace) -> int:
    common.use_repo_sources()
    name = args.workload
    scale = common.SMOKE if args.smoke else common.FULL
    trace = args.trace == 1
    variant = dict(v.split("=", 1) for v in args.variant)
    if name in BATCH_WORKLOADS:
        import batchbench

        try:
            if args.setup_only:
                print(json.dumps(
                    batchbench.set_up(name, args.seed, scale, variant, _PROCESS_STARTED)[2]
                ))
                return 0
            result = batchbench.run_batch(
                name, args.seed, args.seconds, trace, scale, variant, _PROCESS_STARTED,
                # a traced pass does not report setup_s
                (lambda: []) if trace else (lambda: batch_setups(args)),
            )
        except LookupError as exc:
            print(json.dumps({"skipped": str(exc)}))
            return 0
    else:
        if variant:
            print(json.dumps({"skipped": "variants apply to the batch workloads only"}))
            return 0
        import sockbench

        result = sockbench.run_socket(name, args.seed, args.seconds, trace, scale)

    correct = not result["problems"] and result["failed"] == 0 and "end_to_end" in result
    metrics: dict[str, dict] = {}
    if correct:
        if trace:
            traced = result["traced"]
            metrics = per_layer_metrics(name, traced)
            OUT.mkdir(exist_ok=True)
            (OUT / f"trace-{name}.json").write_text(
                json.dumps(
                    {
                        "workload": name, "seed": args.seed, "topology": topology(name),
                        **traced["report"], "spans": traced["spans"],
                    }
                )
            )
        else:
            metrics = result["end_to_end"]

    samples = result["samples"]
    print(f"# {name}  seed={args.seed}  {'traced' if trace else 'untraced'}  {topology(name)}")
    print(
        f"# window {samples['window_s']:.2f} s: {samples['writes']} write samples, "
        f"{samples['reads']} read samples in {samples['blocks']} blocks; timings are medians "
        f"over blocks, tails p{common.BLOCKS[name]['commit']} (commit) and "
        f"p{common.BLOCKS[name]['read']} (read) of a block"
    )
    print(
        f"# machine ran at {samples['speed']:.3f} x the nominal time of the speed reference; "
        "timings are given at nominal speed"
    )
    print(
        "# set-ups, each in a fresh process (seconds @ speed): "
        + ", ".join(f"{seconds:.3f} @ {speed:.3f}" for seconds, speed in samples["setups"])
        + "; setup_s is the median at nominal speed"
    )
    for key, value in metrics.items():
        print(f"{key:52s} {value['value']:>16.6g} {value['unit']}")
    if correct and trace:
        print(f"# attributed to named layers: {attributed_share(metrics):.1%}")
    for problem in result["problems"]:
        print(f"# PROBLEM: {problem}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, result["attempted"]),
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


# -- everything at once ------------------------------------------------------------------


def fingerprint() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=common.REPO, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
        "platform": platform.platform(),
    }


def child(args: argparse.Namespace, name: str, trace: int, variant: str | None = None) -> dict:
    """One pass in a fresh process; returns its last-line JSON."""
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.smoke:
        argv.append("--smoke")
    if variant:
        argv += ["--variant", variant]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "attempted": 1, "failed": 0, "metrics": {},
                "error": f"exit {done.returncode}"}


def everything(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    traces = [args.trace] if args.trace is not None else [0, 1]
    document = {
        "fingerprint": fingerprint(), "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "topology": {n: topology(n) for n in names}, "claim": None,
        "workloads": {}, "variants": {}, "gates": [],
    }
    ok = True
    for name in names:
        entry = document["workloads"][name] = {}
        for trace in traces:
            outcome = child(args, name, trace)
            entry["per_layer" if trace else "end_to_end"] = outcome
            ok = ok and outcome["correct"] and outcome["failed"] == 0
        if name in BATCH_WORKLOADS and 0 in traces:
            # Same seed, same inputs: the counts the program makes must repeat.
            again = child(args, name, 0)
            for key in EXACT_ON_BATCH:
                first = entry["end_to_end"]["metrics"].get(key, {}).get("value")
                second = again["metrics"].get(key, {}).get("value")
                same = first is not None and first == second
                document["gates"].append(
                    {"gate": f"{name}.{key} repeats exactly", "first": first, "second": second,
                     "ok": same}
                )
                ok = ok and same
    for spec in args.variant:
        for name in BATCH_WORKLOADS:
            if args.workload and name != args.workload:
                continue
            outcome = child(args, name, 0, spec)
            document["variants"].setdefault(spec, {})[name] = outcome
            if "skipped" in outcome:
                print(f"# variant {spec} on {name}: skipped ({outcome['skipped']})")
            else:
                ok = ok and outcome["correct"]
    for gate in document["gates"]:
        print(f"# gate: {gate['gate']}: {'ok' if gate['ok'] else 'FAILED'} "
              f"({gate['first']} / {gate['second']})")
    document["ok"] = ok
    OUT.mkdir(exist_ok=True)
    (OUT / "result.json").write_text(json.dumps(document, indent=1))
    print(f"# result document: {OUT / 'result.json'}  ({'ok' if ok else 'FAILED'})")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None)
    ap.add_argument("--traced", dest="trace", action="store_const", const=1)
    ap.add_argument("--smoke", action="store_true", help="1/20 scale, short passes")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--variant", action="append", default=[], metavar="K=V",
                    help="off-contract mode on the batch workloads: " + ", ".join(
                        f"{k}={'|'.join(v)}" for k, v in VARIANTS.items()))
    args = ap.parse_args()
    for spec in args.variant:
        key, _, value = spec.partition("=")
        if value not in VARIANTS.get(key, ()):
            ap.error(f"unknown variant {spec!r}")
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(SPEC["run_seconds"])
    if args.workload and (args.trace is not None or args.setup_only):
        return one_pass(args)
    return everything(args)


if __name__ == "__main__":
    sys.exit(main())
