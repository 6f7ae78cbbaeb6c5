"""Tests for the observability layer: tracing, metrics, EXPLAIN ANALYZE.

The load-bearing invariant throughout: per-span I/O is measured by diffing
the same monotonic :class:`IOCounter` the engine charges, so span totals
tie out *bit-exactly* to commit attribution — no sampling, no estimates.
"""

import pytest

from repro.constraints.assertions import AssertionViolation
from repro.core.optimizer import evaluate_view_set
from repro.core.plan import OptimizationResult
from repro.core.report import recommend_base_indexes, render_report
from repro.engine import Engine
from repro.ivm.delta import Delta
from repro.obs.explain import explain, explain_analyze
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    trace_to_json,
    validate_trace,
)
from repro.storage.pager import IOCounter, IOStats
from repro.workload.transactions import Transaction
from tests.test_engine import build_maintainer, emp_raise


@pytest.fixture
def engine(small_paper_db):
    return Engine(build_maintainer(small_paper_db))


def modify_txn(engine, index=0, amount=5):
    old, new = emp_raise(engine.db, index=index, amount=amount)
    return Transaction(">Emp", {"Emp": Delta.modification([(old, new)])})


class TestSpan:
    def test_nesting_and_io_attribution(self):
        counter = IOCounter()
        tracer = Tracer(counter)
        with tracer.span("outer") as outer:
            counter.charge_tuple_read(3)
            with tracer.span("inner") as inner:
                counter.charge_index_read(2)
            counter.charge_tuple_write(1)
        assert tracer.roots == [outer]
        assert outer.children == [inner]
        assert inner.io == IOStats(index_reads=2)
        # Parent io is inclusive; exclusive_io partitions the charges.
        assert outer.io == IOStats(index_reads=2, tuple_reads=3, tuple_writes=1)
        assert outer.exclusive_io == IOStats(tuple_reads=3, tuple_writes=1)
        assert tracer.total_io() == counter.snapshot()

    def test_sibling_spans_partition(self):
        counter = IOCounter()
        tracer = Tracer(counter)
        with tracer.span("a"):
            counter.charge_tuple_read(2)
        with tracer.span("b"):
            counter.charge_tuple_read(5)
        a, b = tracer.roots
        assert (a.io.total, b.io.total) == (2, 5)
        assert tracer.total_io() == counter.snapshot()

    def test_annotate_and_error_outcome(self):
        tracer = Tracer(IOCounter())
        with pytest.raises(RuntimeError):
            with tracer.span("txn") as span:
                span.annotate(policy="enforce")
                raise RuntimeError("boom")
        assert span.attrs["policy"] == "enforce"
        assert span.attrs["outcome"] == "error"

    def test_explicit_outcome_survives_exception(self):
        # The enforcing policy annotates outcome="rejected" before raising;
        # __exit__ must not overwrite it with "error".
        tracer = Tracer(IOCounter())
        with pytest.raises(RuntimeError):
            with tracer.span("txn") as span:
                span.annotate(outcome="rejected")
                raise RuntimeError("boom")
        assert span.attrs["outcome"] == "rejected"

    def test_find_and_reset(self):
        tracer = Tracer(IOCounter())
        with tracer.span("txn"):
            with tracer.span("fetch"):
                pass
            with tracer.span("fetch"):
                pass
        assert len(tracer.find("fetch")) == 2
        tracer.reset()
        assert tracer.roots == []


class TestNullTracer:
    def test_is_inert_and_shared(self):
        assert not NULL_TRACER.enabled
        s1 = NULL_TRACER.span("txn", anything=1)
        s2 = NULL_TRACER.span("other")
        assert s1 is s2  # one shared no-op span, no allocation per call
        with s1 as entered:
            assert entered is s1
        assert s1.annotate(outcome="x") is s1
        assert NULL_TRACER.roots == ()
        NULL_TRACER.reset()

    def test_new_instances_also_inert(self):
        t = NullTracer()
        t.bind(IOCounter())
        with t.span("txn"):
            pass
        assert t.roots == ()


class TestTraceJson:
    def _traced(self):
        counter = IOCounter()
        tracer = Tracer(counter)
        with tracer.span("txn", txn=">Emp"):
            counter.charge_tuple_read(2)
            with tracer.span("track_op", node=3):
                counter.charge_index_read(1)
        return tracer

    def test_roundtrip_validates(self):
        import json

        doc = trace_to_json(self._traced())
        validate_trace(json.loads(json.dumps(doc)))

    def test_rejects_bad_version(self):
        doc = trace_to_json(self._traced())
        doc["version"] = 99
        with pytest.raises(ValueError, match="version"):
            validate_trace(doc)

    def test_rejects_total_mismatch(self):
        doc = trace_to_json(self._traced())
        doc["io_total"] += 1
        with pytest.raises(ValueError, match="io_total"):
            validate_trace(doc)

    def test_rejects_inconsistent_span_io(self):
        doc = trace_to_json(self._traced())
        doc["spans"][0]["io"]["total"] += 1
        with pytest.raises(ValueError, match="inconsistent"):
            validate_trace(doc)

    def test_rejects_children_exceeding_parent(self):
        doc = trace_to_json(self._traced())
        child = doc["spans"][0]["children"][0]
        child["io"]["index_reads"] = 100
        child["io"]["total"] = 100
        with pytest.raises(ValueError, match="children charge more"):
            validate_trace(doc)

    def test_rejects_negative_and_bool_counts(self):
        doc = trace_to_json(self._traced())
        doc["spans"][0]["io"]["tuple_reads"] = -1
        with pytest.raises(ValueError, match="non-negative"):
            validate_trace(doc)
        doc["spans"][0]["io"]["tuple_reads"] = True
        with pytest.raises(ValueError, match="non-negative"):
            validate_trace(doc)


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        m = MetricsRegistry()
        m.counter("engine.commits").inc()
        m.counter("engine.commits").inc(2)
        m.histogram("engine.commit_io").observe(3)
        m.histogram("engine.commit_io").observe(7)
        snap = m.snapshot()
        assert snap["engine.commits"] == 3
        assert snap["engine.commit_io.count"] == 2
        assert snap["engine.commit_io.total"] == 10
        assert snap["engine.commit_io.min"] == 3
        assert snap["engine.commit_io.max"] == 7
        assert m.histogram("engine.commit_io").mean == 5

    def test_observe_io_by_kind(self):
        m = MetricsRegistry()
        m.observe_io(IOStats(index_reads=1, tuple_writes=4))
        snap = m.snapshot()
        assert snap["io.index_reads"] == 1
        assert snap["io.tuple_writes"] == 4
        assert "io.tuple_reads" not in snap  # zero kinds are not created

    def test_since_differences_counters_only(self):
        m = MetricsRegistry()
        m.counter("engine.commits").inc(5)
        before = m.snapshot()
        m.counter("engine.commits").inc(2)
        delta = m.since(before)
        assert delta["engine.commits"] == 2  # counter: difference
        assert "engine.rollbacks" not in delta

    def test_render_sorted(self):
        m = MetricsRegistry()
        m.counter("b").inc()
        m.counter("a").inc()
        lines = m.render()
        assert lines[0].startswith("a:")
        assert lines[1].startswith("b:")

    def test_source_is_read_at_snapshot_and_differenced(self):
        owned = {"hits": 3, "misses": 1}
        m = MetricsRegistry()
        m.source("cache.x", lambda: dict(owned))
        assert m.snapshot() == {"cache.x.hits": 3, "cache.x.misses": 1}
        before = m.snapshot()
        owned["hits"] += 2
        assert m.snapshot()["cache.x.hits"] == 5  # nothing was pushed
        assert m.since(before) == {"cache.x.hits": 2}  # misses unchanged
        assert "cache.x.hits: 5" in m.render()

    def test_snapshot_while_another_thread_creates_metrics(self):
        """The server snapshots on its event loop while the commit thread
        creates counters lazily; iterating the live dicts raised
        "dictionary changed size during iteration"."""
        import sys
        import threading

        m = MetricsRegistry()

        def create():
            for i in range(20_000):
                m.counter(f"c{i}").inc()
                m.histogram(f"h{i}").observe(i)

        writer = threading.Thread(target=create)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two threads finely
        try:
            writer.start()
            while writer.is_alive():
                m.snapshot()
                m.render()
        finally:
            writer.join(30)
            sys.setswitchinterval(interval)
        assert not writer.is_alive()
        assert m.snapshot()["c19999"] == 1


class TestEngineMetrics:
    """Each engine owns its registry; the counts its caches and durable log
    keep are read when a snapshot is taken, never copied on commit."""

    def test_fresh_engine_snapshot_shows_cache_and_durable_counts(self, tmp_path):
        from repro.storage.database import Database
        from repro.workload.paperdb import DEPT_SCHEMA, EMP_SCHEMA, generate_corporate_db

        db = Database(durable_path=str(tmp_path / "store"))
        data = generate_corporate_db(20, 5, seed=7)
        db.create_relation("Dept", DEPT_SCHEMA, data["Dept"], indexes=[["DName"]])
        db.create_relation("Emp", EMP_SCHEMA, data["Emp"], indexes=[["DName"]])
        engine = Engine(build_maintainer(db))
        snap = engine.metrics.snapshot()
        expected = {
            f"cache.{name}" for name in (
                "plan.hits", "plan.misses", "plan.entries", "plan.evictions",
                "commit.hits", "commit.misses", "commit.io_saved",
                "adhoc_plan.hits", "adhoc_plan.misses",
            )
        } | {f"durable.{key}" for key in db.durable.stats.snapshot()}
        assert expected <= set(snap)
        assert "engine.commits" not in snap
        assert snap["durable.wal_records"] == db.durable.stats.wal_records > 0
        db.close()

    def test_engines_do_not_share_a_registry(self, small_paper_db):
        first = Engine(build_maintainer(small_paper_db))
        second = Engine(first.maintainer)
        first.execute(modify_txn(first))
        assert first.metrics is not second.metrics
        assert "engine.commits" not in second.metrics.snapshot()

    def test_collector_counts_are_read_and_differenced_without_a_hook(self, small_paper_db):
        """``runtime.gc`` reads the collector's per-generation counts at a
        snapshot; ``since`` shows the collections an interval ran, and
        the engine hooks nothing into the collector."""
        import gc

        hooks = list(gc.callbacks)
        engine = Engine(build_maintainer(small_paper_db))
        engine.execute(modify_txn(engine))
        before = engine.metrics.snapshot()
        for generation in range(3):
            assert before[f"runtime.gc.gen{generation}.collections"] >= 0
            assert f"runtime.gc.gen{generation}.collected" in before
        gc.collect()
        gc.collect()
        delta = engine.metrics.since(before)
        assert delta["runtime.gc.gen2.collections"] >= 2
        assert gc.callbacks == hooks

    def test_a_commit_sets_no_gauge(self, engine):
        # The registry keeps no last-value metric a commit could set.
        assert not hasattr(engine.metrics, "gauge")
        result = engine.execute(modify_txn(engine))
        assert result.io.total > 0
        snap = engine.metrics.snapshot()
        assert snap["engine.commits"] == 1
        assert snap["cache.commit.misses"] == engine.maintainer.commit_cache_stats.misses > 0


class TestEngineTracing:
    def test_txn_span_io_ties_out_to_result(self, engine):
        tracer = Tracer()
        engine.set_tracer(tracer)
        result = engine.execute(modify_txn(engine))
        (txn_span,) = tracer.find("txn")
        assert txn_span.io == result.io  # bit-exact, same counter
        assert txn_span.attrs["outcome"] == "committed"
        assert tracer.total_io() == result.io

    def test_span_tree_covers_the_pipeline(self, engine):
        tracer = Tracer()
        engine.set_tracer(tracer)
        engine.execute(modify_txn(engine))
        names = {s.name for root in tracer.roots for s in root.walk()}
        assert {"txn", "track_op", "base_apply", "assertion_check"} <= names
        # Every track op carries its node id for plan correlation.
        for span in tracer.find("track_op"):
            assert isinstance(span.attrs["node"], int)

    def test_untraced_commit_io_identical(self, small_paper_db):
        # Tracing observes; it must never change what is charged. Two
        # identically-seeded worlds, one traced — bit-identical commit I/O.
        from repro.storage.database import Database
        from repro.workload.paperdb import (
            DEPT_SCHEMA,
            EMP_SCHEMA,
            generate_corporate_db,
        )

        engine_a = Engine(build_maintainer(small_paper_db))
        result_a = engine_a.execute(modify_txn(engine_a))

        db = Database()
        data = generate_corporate_db(20, 5, seed=7)
        db.create_relation("Dept", DEPT_SCHEMA, data["Dept"], indexes=[["DName"]])
        db.create_relation("Emp", EMP_SCHEMA, data["Emp"], indexes=[["DName"]])
        engine_b = Engine(build_maintainer(db), tracer=Tracer())
        result_b = engine_b.execute(modify_txn(engine_b))
        assert result_b.io == result_a.io
        assert result_b.txn.deltas == result_a.txn.deltas

    def test_metrics_fold_per_commit(self, engine):
        engine.execute(modify_txn(engine))
        snap = engine.metrics.snapshot()
        assert snap["engine.commits"] == 1
        assert snap["engine.commit_io.count"] == 1
        assert snap["engine.commit_io.total"] > 0

    def test_enforcing_rejection_traced_and_counted(self, small_paper_db):
        from repro.constraints.assertions import AssertionSystem

        from tests.test_engine import DEPT_CONSTRAINT
        from repro.workload.transactions import paper_transactions

        system = AssertionSystem(
            small_paper_db, [DEPT_CONSTRAINT], paper_transactions(), enforce=True
        )
        engine = system.engine
        tracer = Tracer()
        engine.set_tracer(tracer)
        old, new = emp_raise(engine.db, amount=10**6)
        with pytest.raises(AssertionViolation):
            engine.execute(
                Transaction(">Emp", {"Emp": Delta.modification([(old, new)])})
            )
        (txn_span,) = tracer.find("txn")
        assert txn_span.attrs["outcome"] == "rejected"
        assert tracer.find("rollback")
        snap = engine.metrics.snapshot()
        assert snap["engine.rollbacks"] == 1
        assert snap["engine.rejected"] == 1
        assert "engine.commits" not in snap


class TestExplain:
    def test_explain_renders_plan_with_estimates(self, engine):
        text = explain(engine.maintainer, ">Emp")
        assert "EXPLAIN >Emp" in text
        assert "the view itself" in text
        assert "est I/O" in text
        assert "measured" not in text  # estimates only, nothing executed
        assert "[semijoin]" in text

    def test_explain_unknown_txn(self, engine):
        with pytest.raises(KeyError, match="declared"):
            explain(engine.maintainer, ">Nope")

    def test_explain_analyze_ties_out_bit_exactly(self, engine):
        text, result = explain_analyze(engine, modify_txn(engine))
        assert "EXPLAIN ANALYZE" in text
        assert "measured" in text
        # The rendered measured total is the commit's exact I/O.
        assert f"{result.io.total}" in text.splitlines()[-2]
        assert f"commit I/O: {result.io}" in text
        # The engine's tracer is restored afterwards.
        assert engine.tracer is NULL_TRACER

    def test_explain_analyze_commits_the_transaction(self, engine):
        txn = modify_txn(engine)
        (old, new) = txn.deltas["Emp"].modifies[0]
        explain_analyze(engine, txn)
        assert new in engine.db.relation("Emp").contents().rows()
        engine.maintainer.verify()

    def test_explain_analyze_adhoc_shell_txn(self, engine):
        # Ad-hoc transactions (undeclared type) render via last_plan even
        # though apply_adhoc pops its transient type registration.
        old, new = emp_raise(engine.db, index=1, amount=3)
        txn = Transaction("__shell", {"Emp": Delta.modification([(old, new)])})
        text, result = explain_analyze(engine, txn)
        assert "EXPLAIN ANALYZE __shell" in text
        assert f"commit I/O: {result.io}" in text


class TestRenderersFollowCostSwitches:
    """Under ``CostConfig(self_maintenance=False)`` the materialized
    SumOfSals recomputes its groups, so ``>Emp`` poses a group fetch on Emp
    by DName. Every renderer must show the plan the optimizer priced."""

    @pytest.fixture
    def ablated(self, small_paper_db):
        maintainer = build_maintainer(small_paper_db, self_maintenance=False)
        evaluation = evaluate_view_set(
            maintainer.memo,
            maintainer.marking,
            list(maintainer.txn_types.values()),
            maintainer.cost_model,
            maintainer.estimator,
        )
        result = OptimizationResult(
            best=evaluation,
            evaluated=[evaluation],
            root=maintainer.dag.root,
            candidates=tuple(sorted(maintainer.marking)),
        )
        return maintainer, result

    def test_explain_total_is_the_priced_total(self, ablated):
        maintainer, result = ablated
        plan = result.best.per_txn[">Emp"]
        assert (plan.query_cost, plan.update_cost) == (8.0, 3.0)
        text = explain(maintainer, ">Emp")
        total = next(l for l in text.splitlines() if "total (MQO" in l)
        assert float(total.split()[-1]) == plan.total
        assert "[group-fetch]" in text

    def test_report_lists_the_group_fetch(self, ablated):
        maintainer, result = ablated
        txns = list(maintainer.txn_types.values())
        args = (maintainer.cost_model, maintainer.estimator)
        report = render_report(maintainer.dag, result, txns, *args)
        assert "query 8.00 + update 3.00 = 11.00" in report
        assert "[group-fetch]" in report
        assert "Emp: hash index on (DName)" in report
        needed = recommend_base_indexes(maintainer.dag, result, txns, *args)
        assert ("DName",) in needed["Emp"]
