"""Shared by the runner and both workload drivers: paths, scale, statistics."""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT = HERE / "out"
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())

SOCKET_WORKLOADS = ("e1_point_mem", "e1_mixed_durable")
BATCH_WORKLOADS = ("chain_batch_modify", "sales_batch_insdel")
WORKLOADS = SOCKET_WORKLOADS + BATCH_WORKLOADS

CLIENTS = 2  # closed loop, one thread per client; sized for nproc = 2


def topology(workload: str) -> str:
    if workload in SOCKET_WORKLOADS:
        return f"server subprocess, closed loop, {CLIENTS} clients"
    return "in-process, closed loop, 1 thread"


def use_repo_sources() -> None:
    """Import ``repro`` from this checkout, in its default configuration."""
    src = str(REPO / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]


@dataclass(frozen=True)
class Scale:
    """Data sizes. ``smoke`` is 1/20 of the measured scale."""

    n_depts: int
    emps_per_dept: int
    chain_rows: int
    chain_batch: int
    customers: int
    items: int
    orders: int
    order_batch: int
    reprice: int
    warmup_ops: int  # per client (socket) / transactions (batch), not measured
    # The head of each window is a fixed number of operations, so that counts
    # and space are read after the same work whatever the machine's speed.
    socket_prefix: int  # operations per client
    count_prefix: int  # batch transactions, a whole number of blocks
    block_s: float  # socket workloads: the length of one block of the window


FULL = Scale(
    n_depts=1000, emps_per_dept=10,
    chain_rows=30_000, chain_batch=3000,
    customers=2000, items=400, orders=200_000, order_batch=2000, reprice=10,
    warmup_ops=9, socket_prefix=500, count_prefix=72, block_s=1.0,
)
SMOKE = Scale(
    n_depts=50, emps_per_dept=10,
    chain_rows=1500, chain_batch=150,
    customers=100, items=20, orders=10_000, order_batch=100, reprice=2,
    warmup_ops=5, socket_prefix=30, count_prefix=72, block_s=0.1,
)

#: The window is cut into blocks — ``Scale.block_s`` seconds on the socket
#: workloads, ``txns`` transactions (whole cycles of the mix) on the batch
#: workloads. A timing metric is the median over the blocks of the block's own
#: statistic; the tail is this percentile inside a block, chosen to lie inside
#: the slowest mode of the mix (see README, "Blocks and tails").
BLOCKS = {
    "e1_point_mem": {"commit": 90, "read": 90},
    "e1_mixed_durable": {"commit": 90, "read": 90},
    "chain_batch_modify": {"commit": 90, "read": 90, "txns": 24},
    "sales_batch_insdel": {"commit": 97, "read": 90, "txns": 72},
}


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


# -- the speed reference ----------------------------------------------------------------

#: what the two halves of the reference take on this sandbox while the machine
#: is quiet; timings are reported at this speed (README, "Speed reference")
REFERENCE_NOMINAL_NS = {False: 550_000, True: 1_200_000}  # by ``memory``
_REFERENCE_ROWS = [(i, i % 97, str(i)) for i in range(1000)]
_REFERENCE_TABLE = {i: (i, i % 97, i + 1) for i in range(30_000)}


def reference_speed(clock=perf_counter_ns, memory: bool = False) -> float:
    """How much slower than nominal a fixed piece of work runs right now, timed
    on ``clock``. Its first half is interpreter work on small objects — build
    a 1000-entry dict of tuples and scan it, three times — whose working set
    stays in the core's own cache: it slows when a neighbour keeps the core
    busy, not with what the program under test leaves in the shared caches.
    With ``memory`` a second half copies a 30 000-entry dict: one big
    allocation on fresh pages, which slows when the host's memory is busy.
    Which half tracks which workload was measured (README, "Speed reference")."""
    started = clock()
    for _ in range(3):
        table = {}
        for row in _REFERENCE_ROWS:
            table[(row[0], row[1])] = (row[0], row[1] + 1, row[2])
        sum(value[1] for value in table.values())
    if memory:
        len(dict(_REFERENCE_TABLE))
    return (clock() - started) / REFERENCE_NOMINAL_NS[memory]


def speed_now(runs: int = 15) -> float:
    """The reference's first half, as it reads now in this process: set-up is
    interpreter work on every workload."""
    return median(reference_speed() for _ in range(runs))


#: A pass sets the world up this many times, each in a fresh process, and
#: reports the median (at nominal speed): one set-up jumps by half now and then.
SETUPS = 3


def setup_metric(setups: list[tuple[float, float]]) -> dict:
    """``setup_s`` from (seconds, ``speed_now()`` when it ended) per set-up."""
    return metric(median(seconds / speed for seconds, speed in setups), "s")


@dataclass
class Block:
    """What one block of the window measured."""

    wall_s: float
    cpu_s: float  # of the process under test
    rows: int  # committed base-row changes
    write_ms: list[float]
    read_ms: list[float]
    speeds: list[float]  # the speed reference, as run while the block lasted

    @property
    def speed(self) -> float:
        """How much slower than nominal the machine ran during this block."""
        return median(self.speeds)


def timing_metrics(workload: str, blocks: list[Block]) -> dict[str, dict]:
    """The timing metrics of a window: each the median over its blocks of the
    block's own statistic at nominal speed (times ÷ ``speed``, rate × it).
    Every block that holds writes, reads and reference runs counts; empty
    when there is none."""
    tails = BLOCKS[workload]
    blocks = [b for b in blocks if b.write_ms and b.read_ms and b.speeds]
    if not blocks:
        return {}

    def over_blocks(stat) -> float:
        return median(stat(b) / b.speed for b in blocks)

    return {
        "commit_p50_ms": metric(over_blocks(lambda b: median(b.write_ms)), "ms"),
        "commit_tail_ms": metric(
            over_blocks(lambda b: percentile(b.write_ms, tails["commit"])), "ms"
        ),
        "write_rows_per_s": metric(
            median(b.rows / b.wall_s * b.speed for b in blocks), "rows/s"
        ),
        "read_p50_ms": metric(over_blocks(lambda b: median(b.read_ms)), "ms"),
        "read_tail_ms": metric(over_blocks(lambda b: percentile(b.read_ms, tails["read"])), "ms"),
        "cpu_ms_per_op": metric(
            over_blocks(lambda b: b.cpu_s * 1e3 / (len(b.write_ms) + len(b.read_ms))), "ms"
        ),
    }


def peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def world_counts(engine) -> tuple[int, int]:
    """(tuples in materialized non-leaf nodes, tuples in base relations)."""
    maintainer = engine.maintainer
    memo = maintainer.memo
    views = set()
    view_tuples = 0
    for gid in maintainer.marking:
        if not memo.group(gid).is_leaf:
            view_tuples += maintainer.view_contents(gid).total()
            views.add(maintainer.view_name(gid))
    return view_tuples, sum(rel.row_count for rel in engine.db if rel.name not in views)


def io_dict(io) -> dict[str, int]:
    """An ``IOStats`` as the JSON the result documents carry."""
    return {
        "index_reads": io.index_reads, "index_writes": io.index_writes,
        "tuple_reads": io.tuple_reads, "tuple_writes": io.tuple_writes, "total": io.total,
    }


def delta_rows(delta) -> int:
    return delta.inserts.total() + delta.deletes.total() + len(delta.modifies)
