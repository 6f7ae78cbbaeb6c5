"""Experiment E10 — execution-backend throughput: interpreted vs compiled.

Runs the k=5 chain-join workload (the paper's Section 3 SPJ example) through
both execution backends and reports rows/second for

* **full evaluation** — ``evaluate(view, db)`` from scratch;
* **delta propagation** — batched modifications pushed through the join
  spine with :func:`repro.ivm.propagate.propagate_join_spine_net`;
* **maintainer delta-apply** — end-to-end ``ViewMaintainer.apply`` including
  storage charging and materialized-root updates (reported, not thresholded:
  storage-side work is backend-independent by design and bounds the ratio).

Two layers of measurement:

1. **Baseline** (single scale, preserved from the original E10): the
   compiled-vs-interpreted comparison with its historical floors (≥3× full
   eval, ≥2× delta propagation).
2. **Scale sweep** (3k / 30k / 100k rows × both backends): per-scale
   rows/sec recorded into ``BENCH_exec.json`` so the speedup-vs-scale
   curve is tracked.

Correctness and cost transparency are asserted throughout: both backends
must produce bit-identical multisets and identical IOCounter charges.
Those assertions run even under ``REPRO_BENCH_SMOKE=1``, which shrinks the
data so CI can run this as a divergence smoke test.

Timing protocol: one untimed warmup pass per backend (compilation is a
first-transaction cost by design), then interleaved rounds alternating
backend order, scoring each backend by its best round — which is how you measure a constant-factor difference on a
noisy shared machine.
"""

import json
import os
import random
import time
from pathlib import Path

from conftest import emit, format_table

from repro.algebra.compile import BACKENDS, set_default_backend
from repro.algebra.evaluate import evaluate
from repro.algebra.operators import Join
from repro.core.optimizer import evaluate_view_set
from repro.cost.estimates import DagEstimator
from repro.cost.model import CostConfig
from repro.cost.page_io import PageIOCostModel
from repro.dag.builder import build_dag
from repro.ivm.delta import Delta
from repro.ivm.maintainer import ViewMaintainer
from repro.ivm.propagate import propagate_join_spine_net, repair_modifications
from repro.storage.statistics import Catalog
from repro.workload.generators import chain_view, load_chain_database
from repro.workload.transactions import Transaction, TransactionType, UpdateSpec

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

K = 5
ROWS = 300 if SMOKE else 3000  # rows per chain relation (baseline scale)
BATCH = 100 if SMOKE else 1000  # modifications per propagated transaction
N_TXNS = 2 if SMOKE else 8
ROUNDS = 2 if SMOKE else 5

E2E_ROWS = 200 if SMOKE else 1000
E2E_BATCH = 20 if SMOKE else 200
E2E_TXNS = 2 if SMOKE else 4

SCALES = (300,) if SMOKE else (3_000, 30_000, 100_000)
SWEEP_ROUNDS = 1 if SMOKE else 3
SWEEP_TXNS = 2

EVAL_SPEEDUP_FLOOR = 3.0  # compiled over interpreted (baseline scale)
DELTA_SPEEDUP_FLOOR = 2.0

_RESULTS_FILE = Path(__file__).parent / "BENCH_exec.json"


def join_spine(view: Join) -> list[Join]:
    """The left-deep spine, bottom join first."""
    spine = []
    expr = view
    while isinstance(expr, Join):
        spine.append(expr)
        expr = expr.left
    spine.reverse()
    return spine


def right_fetch(db, join: Join):
    """Indexed semijoin fetch on the (base) right input of a spine join,
    with the bucket-grained fast path the maintainer also exposes."""
    cols = sorted(join.join_columns)
    rel = db.relation(join.right.name)

    def fetch(keys):
        return rel.lookup_many(cols, keys)

    fetch.buckets = lambda keys: rel.lookup_buckets(cols, keys)
    return fetch


def propagate_spine(spine, fetches, delta, view_schema) -> Delta:
    """ΔR1 → Δ(view): one signed multiset through the whole spine, with the
    modification re-pairing paid once at the root."""
    net = propagate_join_spine_net(spine, delta.net(), fetches)
    return repair_modifications(view_schema, Delta.from_net(net))


def make_deltas(db, rng: random.Random, batch: int, n_txns: int) -> list[Delta]:
    """Batched V1 bumps against the loaded R1 state (never applied, so every
    round propagates the identical transaction list)."""
    rows = sorted(db.relation("R1").contents().rows())
    deltas = []
    for _ in range(n_txns):
        pairs = [
            (old, (old[0], old[1], old[2] + 1)) for old in rng.sample(rows, batch)
        ]
        deltas.append(Delta.modification(pairs))
    return deltas


def _best_per_backend(units, schedule) -> dict[str, float]:
    """Run ``units`` under each backend of ``schedule`` in turn, scoring
    each unit by its best run (finer-grained minima absorb scheduler noise
    better than whole-round totals)."""
    times = {b: [[] for _ in units] for b in BACKENDS}
    for backend in schedule:
        set_default_backend(backend)
        for i, unit in enumerate(units):
            started = time.perf_counter()
            unit()
            times[backend][i].append(time.perf_counter() - started)
    set_default_backend("compiled")
    return {b: sum(min(ts) for ts in per_unit) for b, per_unit in times.items()}


def interleaved_best(units) -> dict[str, float]:
    """Per-backend wall time, alternating backend order across rounds."""
    return _best_per_backend(
        units,
        [b for r in range(ROUNDS) for b in (BACKENDS if r % 2 == 0 else BACKENDS[::-1])],
    )


def block_best(units) -> dict[str, float]:
    """Like :func:`interleaved_best`, but each backend runs its rounds as
    one consecutive block: at sweep scale the interpreted units churn
    through hundreds of MB of per-row dicts, so round-interleaving would
    charge the other backend a CPU-cache repopulation that best-of-rounds
    scoring is meant to exclude. Each block's first round absorbs the cold
    start; the minimum is equally warm for every backend."""
    return _best_per_backend(units, [b for b in BACKENDS for _ in range(SWEEP_ROUNDS)])


def measure_full_eval(db, view):
    results = {}
    for backend in BACKENDS:
        set_default_backend(backend)
        results[backend] = evaluate(view, db)  # warmup (compiles the plan)
    set_default_backend("compiled")
    for backend, result in results.items():
        assert result == results["interpreted"], f"{backend} diverges on full eval"
    return interleaved_best([lambda: evaluate(view, db)]), results["compiled"].total()


def measure_delta_propagation(db, view, deltas):
    spine = join_spine(view)
    fetches = [right_fetch(db, j) for j in spine]

    def run_all():
        return [propagate_spine(spine, fetches, d, view.schema) for d in deltas]

    results, stats = {}, {}
    for backend in BACKENDS:  # warmup + cost-transparency check
        set_default_backend(backend)
        before = db.counter.snapshot()
        results[backend] = run_all()
        stats[backend] = db.counter.snapshot() - before
    set_default_backend("compiled")
    for backend in BACKENDS:
        assert stats[backend] == stats["interpreted"], (
            f"{backend} charges different I/O"
        )
        for dc, di in zip(results[backend], results["interpreted"]):
            assert dc.inserts == di.inserts and dc.deletes == di.deletes
            assert sorted(dc.modifies) == sorted(di.modifies)
    units = [
        (lambda d=d: propagate_spine(spine, fetches, d, view.schema)) for d in deltas
    ]
    return interleaved_best(units), stats["compiled"]


def run_maintainer(backend: str, rows=None, batch=None, txns=None, seed=11):
    """End-to-end delta-apply through ViewMaintainer on a fresh database."""
    rows = E2E_ROWS if rows is None else rows
    batch = E2E_BATCH if batch is None else batch
    txns = E2E_TXNS if txns is None else txns
    set_default_backend(backend)
    db = load_chain_database(K, rows, seed=seed)
    view = chain_view(K)
    dag = build_dag(view)
    estimator = DagEstimator(dag.memo, Catalog.from_database(db))
    cost_model = PageIOCostModel(
        dag.memo, estimator, CostConfig(charge_root_update=False, root_group=dag.root)
    )
    txn_types = (
        TransactionType(
            ">R1",
            {"R1": UpdateSpec(modifies=batch, modified_columns=frozenset({"V1"}))},
        ),
    )
    marking = frozenset({dag.root})
    ev = evaluate_view_set(dag.memo, marking, txn_types, cost_model, estimator)
    maintainer = ViewMaintainer(
        db,
        dag,
        marking,
        txn_types,
        {name: plan.track for name, plan in ev.per_txn.items()},
        estimator,
        cost_model,
    )
    maintainer.materialize()

    # Pre-generate txns + 1 deterministic transactions against the
    # evolving R1 state (same seed per backend → identical streams).
    current = {row[1]: row for row in db.relation("R1").contents().rows()}
    rng = random.Random(29)
    txn_list = []
    for _ in range(txns + 1):
        pairs = []
        for key in rng.sample(sorted(current), batch):
            old = current[key]
            new = (old[0], old[1], old[2] + 1)
            current[key] = new
            pairs.append((old, new))
        txn_list.append(Transaction(">R1", {"R1": Delta.modification(pairs)}))

    maintainer.apply(txn_list[0])  # warmup (compiles the track's kernels)
    db.counter.reset()
    started = time.perf_counter()
    for txn in txn_list[1:]:
        maintainer.apply(txn)
    elapsed = time.perf_counter() - started
    io = db.counter.snapshot()
    maintainer.verify()
    set_default_backend("compiled")
    return elapsed, io


# -- scale sweep ---------------------------------------------------------------------


def sweep_full_eval(db, view):
    assert evaluate(view, db, backend="compiled") == evaluate(
        view, db, backend="interpreted"
    ), "compiled diverges on full eval"
    return block_best([lambda: evaluate(view, db)])


def sweep_delta(db, view, deltas):
    """Per-backend spine propagation, net to net. The input nets are
    precomputed once (signed-delta arithmetic is backend-independent input
    prep). Both backends are asserted to identical deltas and identical
    I/O charges."""
    spine = join_spine(view)
    fetches = [right_fetch(db, j) for j in spine]
    in_nets = [d.net() for d in deltas]

    nets, stats = {}, {}
    for backend in BACKENDS:
        set_default_backend(backend)
        before = db.counter.snapshot()
        nets[backend] = [propagate_join_spine_net(spine, n, fetches) for n in in_nets]
        stats[backend] = db.counter.snapshot() - before
    set_default_backend("compiled")
    assert stats["compiled"] == stats["interpreted"], "compiled charges different I/O"
    for got, want in zip(nets["compiled"], nets["interpreted"]):
        assert got == want, "compiled diverges on delta propagation"
    units = [(lambda n=n: propagate_join_spine_net(spine, n, fetches)) for n in in_nets]
    return block_best(units), stats["compiled"]


def summarize_sweep(times: dict[str, float], rows: int) -> dict:
    out = {f"{b}_s": t for b, t in times.items()}
    out.update({f"{b}_rows_per_s": rows / t for b, t in times.items()})
    out["speedup_compiled_vs_interpreted"] = (
        times["interpreted"] / times["compiled"]
    )
    return out


def run_sweep() -> dict:
    sweep = {}
    for scale in SCALES:
        db = load_chain_database(K, scale, seed=3)
        view = chain_view(K)
        batch = max(scale // 10, 10)
        deltas = make_deltas(db, random.Random(5), batch, SWEEP_TXNS)

        eval_times = sweep_full_eval(db, view)
        delta_times, delta_io = sweep_delta(db, view, deltas)

        e2e = {
            b: run_maintainer(b, rows=scale, batch=batch, txns=SWEEP_TXNS)
            for b in BACKENDS
        }
        for backend, (_, io) in e2e.items():
            assert io == e2e["interpreted"][1], (
                f"maintainer charges different I/O under {backend}"
            )

        sweep[str(scale)] = {
            "batch": batch,
            "full_eval": summarize_sweep(eval_times, scale),
            "delta_propagation": {
                **summarize_sweep(delta_times, SWEEP_TXNS * batch),
                "io_per_txn": delta_io.total / SWEEP_TXNS,
            },
            "maintainer_end_to_end": {
                **summarize_sweep(
                    {b: t for b, (t, _) in e2e.items()}, SWEEP_TXNS * batch
                ),
                "io_per_txn": e2e["compiled"][1].total / SWEEP_TXNS,
            },
        }
    return sweep


def run_throughput():
    db = load_chain_database(K, ROWS, seed=3)
    view = chain_view(K)
    deltas = make_deltas(db, random.Random(5), BATCH, N_TXNS)

    eval_times, out_rows = measure_full_eval(db, view)
    delta_times, delta_io = measure_delta_propagation(db, view, deltas)
    e2e = {b: run_maintainer(b) for b in BACKENDS}
    for backend, (_, io) in e2e.items():
        assert io == e2e["interpreted"][1], (
            f"maintainer charges different I/O under {backend}"
        )

    eval_rows = K * ROWS  # base rows consumed by a from-scratch evaluation
    delta_rows = N_TXNS * BATCH
    e2e_rows = E2E_TXNS * E2E_BATCH
    return {
        "workload": {
            "chain_length": K,
            "rows_per_relation": ROWS,
            "batch": BATCH,
            "txns": N_TXNS,
            "rounds": ROUNDS,
            "view_rows": out_rows,
            "smoke": SMOKE,
        },
        "full_eval": summarize(eval_times, eval_rows),
        "delta_propagation": {
            **summarize(delta_times, delta_rows),
            "io_per_txn": delta_io.total / N_TXNS,
        },
        "maintainer_end_to_end": {
            **summarize({b: t for b, (t, _) in e2e.items()}, e2e_rows),
            "io_per_txn": e2e["compiled"][1].total / E2E_TXNS,
        },
        "sweep": run_sweep(),
    }


def summarize(times: dict[str, float], rows: int) -> dict:
    return {
        "interpreted_s": times["interpreted"],
        "compiled_s": times["compiled"],
        "speedup": times["interpreted"] / times["compiled"],
        "interpreted_rows_per_s": rows / times["interpreted"],
        "compiled_rows_per_s": rows / times["compiled"],
    }


def test_exec_throughput(benchmark):
    report = benchmark.pedantic(run_throughput, rounds=1, iterations=1)
    stages = [
        ("full evaluation", report["full_eval"]),
        (f"delta propagation (batch {BATCH})", report["delta_propagation"]),
        ("maintainer delta-apply", report["maintainer_end_to_end"]),
    ]
    emit(format_table(
        f"E10 — execution backend throughput "
        f"(k={K} chain, {ROWS} rows/relation{', smoke' if SMOKE else ''})",
        ["stage", "interp rows/s", "compiled rows/s", "speedup"],
        [
            [
                name,
                f"{s['interpreted_rows_per_s']:,.0f}",
                f"{s['compiled_rows_per_s']:,.0f}",
                f"{s['speedup']:.2f}x",
            ]
            for name, s in stages
        ],
    ))
    emit(format_table(
        "E10 sweep — compiled vs interpreted by scale",
        ["scale", "eval x", "delta x", "maintainer x"],
        [
            [
                scale,
                f"{s['full_eval']['speedup_compiled_vs_interpreted']:.2f}x",
                f"{s['delta_propagation']['speedup_compiled_vs_interpreted']:.2f}x",
                f"{s['maintainer_end_to_end']['speedup_compiled_vs_interpreted']:.2f}x",
            ]
            for scale, s in report["sweep"].items()
        ],
    ))
    if not SMOKE:
        _RESULTS_FILE.write_text(json.dumps(report, indent=2) + "\n")
        assert report["full_eval"]["speedup"] >= EVAL_SPEEDUP_FLOOR
        assert report["delta_propagation"]["speedup"] >= DELTA_SPEEDUP_FLOOR
