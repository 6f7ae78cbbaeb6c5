"""Batch workloads: in-process, one thread, ``Engine.execute`` per transaction.

No SQL and no server here — these are the workloads on which ``repro.ivm``
and ``repro.storage`` do nearly all the work.
"""

from __future__ import annotations

import inspect
from time import perf_counter, perf_counter_ns, process_time

from common import (
    BLOCKS,
    Block,
    Scale,
    delta_rows,
    io_dict,
    median,
    metric,
    peak_rss_mib,
    reference_speed,
    setup_metric,
    speed_now,
    timing_metrics,
    world_counts,
)
from gen import ChainOps, SalesOps

CHAIN_K = 5
CAT_REVENUE = """
CREATE VIEW CatRevenue (Region, Category, Revenue, Orders) AS
SELECT Region, Category, SUM(Quantity * Price), COUNT(*)
FROM Orders, Items, Customers
WHERE Orders.Item = Items.Item AND Orders.CustId = Customers.CustId
GROUPBY Region, Category
"""


class World:
    """A loaded, optimized, materialized database behind one ``Engine``."""

    def __init__(self) -> None:
        self.phases: dict[str, float] = {}
        self.engine = None
        self.maintainer = None
        self.ops = None
        self.plan = None
        self.dag = None

    def timed(self, phase: str, fn, *args, **kwargs):
        started = perf_counter()
        result = fn(*args, **kwargs)
        self.phases[phase] = self.phases.get(phase, 0.0) + perf_counter() - started
        return result


def _variant_db(variant: dict[str, str]):
    from repro.storage.database import Database

    shards = int(variant.get("shards", 0))
    return Database(shards=shards) if shards else Database()


def _finish(world: World, db, view, txn_types, charge_root: bool, variant: dict[str, str]):
    from repro.core.optimizer import optimal_view_set
    from repro.cost.estimates import DagEstimator
    from repro.cost.model import CostConfig
    from repro.cost.page_io import PageIOCostModel
    from repro.dag.builder import build_dag
    from repro.engine import Engine
    from repro.ivm.maintainer import ViewMaintainer
    from repro.storage.statistics import Catalog

    dag = world.timed("dag.build_s", build_dag, view)
    estimator = DagEstimator(dag.memo, Catalog.from_database(db))
    config = (
        CostConfig(charge_root_update=True)
        if charge_root
        else CostConfig(charge_root_update=False, root_group=dag.root)
    )
    cost_model = PageIOCostModel(dag.memo, estimator, config)
    plan = world.timed(
        "core.optimize_s", optimal_view_set, dag, txn_types, cost_model, estimator,
        max_candidates=14,
    )
    maintainer = ViewMaintainer(
        db, dag, plan.best_marking, txn_types,
        {name: p.track for name, p in plan.best.per_txn.items()},
        estimator, cost_model, charge_root_update=charge_root,
        commit_cache=False if variant.get("commit_cache") == "off" else None,
    )
    world.timed("ivm.materialize_s", maintainer.materialize)
    world.engine = Engine(maintainer)
    world.maintainer = maintainer
    world.plan = plan
    world.dag = dag


def build_chain(seed: int, scale: Scale, variant: dict[str, str]) -> World:
    from repro.workload.generators import chain_schema, chain_view, generate_chain_data
    from repro.workload.transactions import TransactionType, UpdateSpec

    world = World()

    def load():
        data = generate_chain_data(CHAIN_K, scale.chain_rows, seed)
        db = _variant_db(variant)
        for i in range(1, CHAIN_K + 1):
            db.create_relation(
                f"R{i}", chain_schema(i), data[f"R{i}"], indexes=[[f"K{i-1}"], [f"K{i}"]]
            )
        return data, db

    data, db = world.timed("workload.load_s", load)
    txn_types = tuple(
        TransactionType(
            f">R{i}",
            {f"R{i}": UpdateSpec(modifies=scale.chain_batch, modified_columns=frozenset({f"V{i}"}))},
            weight=weight,
        )
        for i, weight in ((1, 2.0), (3, 1.0))
    )
    _finish(world, db, chain_view(CHAIN_K), txn_types, False, variant)
    world.ops = ChainOps(data, scale.chain_batch, seed)
    return world


def build_sales(seed: int, scale: Scale, variant: dict[str, str]) -> World:
    from repro.sql.translate import translate_sql
    from repro.workload.generators import (
        CUSTOMER_SCHEMA,
        ITEM_SCHEMA,
        ORDER_SCHEMA,
        generate_sales_data,
    )
    from repro.workload.transactions import TransactionType, UpdateSpec

    world = World()
    schemas = {"Customers": CUSTOMER_SCHEMA, "Items": ITEM_SCHEMA, "Orders": ORDER_SCHEMA}

    def load():
        data = generate_sales_data(scale.customers, scale.items, scale.orders, seed)
        db = _variant_db(variant)
        db.create_relation("Customers", CUSTOMER_SCHEMA, data["Customers"], indexes=[["CustId"]])
        db.create_relation("Items", ITEM_SCHEMA, data["Items"], indexes=[["Item"]])
        db.create_relation(
            "Orders", ORDER_SCHEMA, data["Orders"], indexes=[["CustId"], ["Item"]]
        )
        return data, db

    data, db = world.timed("workload.load_s", load)
    txn_types = (
        TransactionType("new-orders", {"Orders": UpdateSpec(inserts=scale.order_batch)}, 4.0),
        TransactionType("cancel-orders", {"Orders": UpdateSpec(deletes=scale.order_batch)}, 4.0),
        TransactionType(
            "reprice",
            {"Items": UpdateSpec(modifies=scale.reprice, modified_columns=frozenset({"Price"}))},
            1.0,
        ),
    )
    view = translate_sql(CAT_REVENUE, schemas).expr
    _finish(world, db, view, txn_types, True, variant)
    world.ops = SalesOps(data, scale.order_batch, scale.reprice, seed)
    return world


BUILDERS = {"chain_batch_modify": build_chain, "sales_batch_insdel": build_sales}


def apply_variant(variant: dict[str, str]) -> None:
    """Off-contract modes (README, "Variants"); raises LookupError when the
    mode no longer exists, which the runner reports as skipped."""
    backend = variant.get("backend")
    if backend is not None:
        try:
            from repro.algebra.compile import BACKENDS, set_default_backend
        except ImportError as exc:
            raise LookupError(f"no selectable execution backend: {exc}") from exc
        if backend not in BACKENDS:
            raise LookupError(f"execution backend {backend!r} no longer exists")
        set_default_backend(backend)
    if "shards" in variant:
        from repro.storage.database import Database

        if "shards" not in inspect.signature(Database.__init__).parameters:
            raise LookupError("sharded storage no longer exists")
    if "commit_cache" in variant:
        from repro.ivm.maintainer import ViewMaintainer

        if "commit_cache" not in inspect.signature(ViewMaintainer.__init__).parameters:
            raise LookupError("the commit cache switch no longer exists")


def _tracer_cross_check(world: World, op) -> list[str]:
    """One transaction under the shipped ``repro.obs.Tracer`` as well: its
    I/O must tie out exactly with the commit's, and its wall must be within
    5 % of what the ``Engine.execute`` wrapper saw. Returns the problems."""
    from repro.obs.trace import Tracer

    engine = world.engine
    tracer = Tracer()
    engine.set_tracer(tracer)
    before_io = engine.db.counter.snapshot().total
    started = perf_counter_ns()
    try:
        result = engine.execute(op.txn)
    finally:
        engine.set_tracer(None)
    outer_ns = perf_counter_ns() - started
    io = engine.db.counter.snapshot().total - before_io
    problems = []
    if not (tracer.total_io().total == result.io.total == io):
        problems.append(
            f"tracer I/O {tracer.total_io().total}, commit I/O {result.io.total}, "
            f"counter delta {io} do not tie out"
        )
    tracer_ns = sum(root.seconds for root in tracer.roots) * 1e9
    # 5 %, or 0.25 ms for the sub-millisecond transactions of --smoke
    if abs(outer_ns - tracer_ns) > max(0.05 * tracer_ns, 250_000):
        problems.append(
            f"transaction wall: wrappers {outer_ns / 1e6:.3f} ms, Tracer {tracer_ns / 1e6:.3f} ms"
        )
    seen = {span.name for root in tracer.roots for span in root.walk()}
    missing = {"track_op", "base_apply", "view_apply"} - seen
    if missing:
        problems.append(f"Tracer spans missing: {sorted(missing)}")
    return problems


def set_up(name: str, seed: int, scale: Scale, variant: dict[str, str], process_started: float):
    """Build the world and commit its first transaction: set-up ends when the
    first operation has been accepted. Returns the world, whether that
    transaction committed, and (seconds since ``process_started``, the speed
    reference as it reads now)."""
    apply_variant(variant)
    world = BUILDERS[name](seed, scale, variant)
    first_committed = world.engine.execute(world.ops.next().txn).committed
    return world, first_committed, (perf_counter() - process_started, speed_now())


def run_batch(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: Scale,
    variant: dict[str, str],
    process_started: float,
    other_setups,
) -> dict:
    """One pass. ``other_setups()``, called once this process's own set-up
    is done, returns the (seconds, speed reference) of further set-ups."""
    world, first_committed, setup = set_up(name, seed, scale, variant, process_started)
    engine, ops = world.engine, world.ops
    setups = [setup, *other_setups()]

    problems: list[str] = [] if first_committed else ["the first transaction did not commit"]
    state = None  # the recorder's view of this thread, once tracing is on
    rows_out = 0

    def one(op, seq: int) -> tuple[int, int, float, bool, float]:
        """A transaction and the read that follows it, then the speed reference,
        both halves (these workloads allocate and copy as much as they
        interpret): (write ns, read ns, CPU s, outcome as expected, speed)."""
        nonlocal rows_out
        if state is not None:
            state.op = f"0:{seq}"
        cpu = process_time()
        started = perf_counter_ns()
        try:
            result = engine.execute(op.txn)
            ok = result.committed
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            problems.append(f"transaction {seq} raised {exc!r}"[:300])
            result, ok = None, False
        middle = perf_counter_ns()
        epoch = engine.pin_epoch()
        try:
            rows, _io = engine.select(op.read_expr, epoch=epoch)
        finally:
            engine.unpin_epoch(epoch)
        got = sorted(rows.expand())
        ended = perf_counter_ns()
        spent = process_time() - cpu
        if trace and result is not None:
            rows_out += sum(delta_rows(d) for d in result.view_deltas.values())
        as_expected = ok and got == op.read_rows
        return middle - started, ended - middle, spent, as_expected, reference_speed(memory=True)

    failed = sum(1 for seq in range(scale.warmup_ops) if not one(ops.next(), -1 - seq)[3])
    for expr in ops.warm_reads():
        epoch = engine.pin_epoch()
        try:
            engine.select(expr, epoch=epoch)
        finally:
            engine.unpin_epoch(epoch)

    untraced: list[int] = []
    recorder = None
    if trace:
        # A stretch without wrappers first, so the traced stretch has
        # something to be compared with (obs.trace_overhead_ratio).
        deadline = perf_counter() + seconds * 0.3
        while perf_counter() < deadline or len(untraced) < 3:
            write_ns, _read_ns, _cpu, ok, _speed = one(ops.next(), -100 - len(untraced))
            untraced.append(write_ns)
            failed += 0 if ok else 1
        import layers

        recorder = layers.Recorder()
        layers.install(recorder, db=engine.db)
        state = recorder.state()
        seconds *= 0.7

    counter = engine.db.counter
    #: (type, write ns, read ns, rows changed, as expected, CPU s, speed)
    samples: list[tuple[str, int, int, int, bool, float, float]] = []
    rows_out = 0
    io_start = counter.snapshot()
    stats_start = _cache_stats(world)
    prefix = None
    window_started = perf_counter()
    deadline = window_started + seconds
    # The window is --seconds long, and never shorter than its head: a fixed
    # number of transactions, after which the counts and the space are read —
    # they must not depend on how many transactions the machine serves.
    while len(samples) < scale.count_prefix or perf_counter() < deadline:
        op = ops.next()
        write_ns, read_ns, cpu, ok, speed = one(op, len(samples))
        samples.append((op.txn.type_name, write_ns, read_ns, op.rows_changed, ok, cpu, speed))
        if len(samples) == scale.count_prefix:
            prefix = (counter.snapshot() - io_start, *world_counts(engine), peak_rss_mib())
    window_s = perf_counter() - window_started
    report = recorder.report() if recorder is not None else None
    window_rows_out = rows_out
    io_total = counter.snapshot() - io_start
    stats_end = _cache_stats(world)
    failed += sum(1 for s in samples if not s[4])

    # -- correctness: views against recomputation, base rows against the oracle -----
    if trace and name == "chain_batch_modify":
        state.op = "0:tracer-cross-check"
        problems += _tracer_cross_check(world, ops.next())
    try:
        world.maintainer.verify()
    except Exception as exc:  # noqa: BLE001 - MaintenanceError carries the diff
        problems.append(f"views diverged: {exc!r}"[:400])
    for rel, want in ops.expected().items():
        got = set(engine.db.relation(rel).contents().expand())
        if got != want:
            problems.append(f"{rel} differs from the oracle in {len(got ^ want)} rows")

    prefix_io, view_tuples, base_tuples, peak_rss = prefix
    # Blocks are whole cycles of the mix; the transactions after the last
    # whole block are checked like the rest but not timed.
    size = BLOCKS[name]["txns"]
    blocks = [
        Block(
            # the time spent in transactions: generating the next one (between
            # calls) is the load generator's time, not the program's
            wall_s=sum(s[1] for s in chunk) / 1e9,
            cpu_s=sum(s[5] for s in chunk),
            rows=sum(s[3] for s in chunk),
            write_ms=[s[1] / 1e6 for s in chunk],
            read_ms=[s[2] / 1e6 for s in chunk],
            speeds=[s[6] for s in chunk],
        )
        for chunk in (samples[i : i + size] for i in range(0, len(samples) - size + 1, size))
    ]
    result = {
        "attempted": len(samples) + len(untraced) + scale.warmup_ops,
        "failed": failed,
        "problems": problems,
        "samples": {
            "writes": len(samples), "reads": len(samples), "window_s": window_s,
            "blocks": len(blocks), "speed": median(b.speed for b in blocks),
            "setups": setups,
        },
        "end_to_end": {
            "setup_s": setup_metric(setups),
            **timing_metrics(name, blocks),
            "page_io_per_txn": metric(prefix_io.total / scale.count_prefix, "pages"),
            "peak_rss_mb": metric(peak_rss, "MiB"),
            "view_space_ratio": metric(view_tuples / base_tuples, "ratio"),
        },
    }
    if trace:
        plans = world.plan.best.per_txn
        result["traced"] = {
            "report": report,
            "spans": recorder.spans(),
            "phases": world.phases,
            "txns": len(samples),
            "wall_ns": sum(s[1] + s[2] for s in samples),
            "rows_in": sum(s[3] for s in samples),
            "rows_out": window_rows_out,
            "io": io_dict(io_total),
            "cache_stats": {k: stats_end[k] - stats_start[k] for k in stats_end},
            "overhead_ratio": median([s[1] for s in samples]) / median(untraced),
            # the optimizer's estimate for the transaction types actually run
            "estimated_io_per_txn": sum(plans[s[0]].total for s in samples) / len(samples),
            "dag_groups": len(list(world.dag.memo.groups())),
            "view_sets_considered": world.plan.view_sets_considered,
            "marking_size": len(world.plan.best_marking),
        }
    return result


def _cache_stats(world: World) -> dict[str, float]:
    """Cumulative cache and fallback counters the trace tables difference."""
    from repro.algebra.compile import plan_cache
    from repro.obs.metrics import get_metrics

    cc = world.maintainer.commit_cache_stats
    adhoc = world.maintainer.plan_cache
    pc = plan_cache()
    return {
        "commit_hits": cc.hits, "commit_misses": cc.misses, "commit_io_saved": cc.io_saved,
        "adhoc_hits": adhoc.stats.hits if adhoc is not None else 0,
        "adhoc_misses": adhoc.stats.misses if adhoc is not None else 0,
        "plan_hits": pc.hits, "plan_misses": pc.misses,
        "columnar_fallbacks": get_metrics().snapshot().get("columnar.fallback", 0),
    }
