"""Tests for the transaction-stream runner.

The regression anchored here: ``run_transactions``'s *final* flush used to
run outside the per-transaction try/except, so a policy whose flush
enforces assertions would blow away the whole :class:`StreamReport` when
the tail batch was rejected — every already-tallied commit lost. The tail
batch must count as ``rejected`` (it was rolled back atomically) and the
report must survive.
"""

import pytest

from repro.constraints.assertions import AssertionSystem, AssertionViolation
from repro.engine import DeferredPolicy, Engine, EnforcingPolicy
from repro.ivm.delta import Delta
from repro.obs.metrics import MetricsRegistry
from repro.workload.runner import run_transactions
from repro.workload.transactions import Transaction, paper_transactions
from tests.test_engine import DEPT_CONSTRAINT, build_maintainer, emp_raise


class DeferredEnforcingPolicy(DeferredPolicy):
    """Deferred batching whose flush *enforces* assertions.

    Reproduces the runner's tail-flush hazard: the queue drains into one
    combined transaction, and if that batch enters a violation the whole
    batch is rolled back and :class:`AssertionViolation` escapes flush().
    (EnforcingPolicy.commit keeps no per-instance state, so delegating to
    a throwaway instance is sound.)
    """

    def flush(self, engine):
        combined = self.compose(engine)
        if combined is None:
            return None
        return EnforcingPolicy.commit(EnforcingPolicy(), engine, combined)


def _raise_txn(db, index=0, amount=5):
    old, new = emp_raise(db, index=index, amount=amount)
    return Transaction(">Emp", {"Emp": Delta.modification([(old, new)])})


@pytest.fixture
def enforcing_deferred_engine(small_paper_db):
    system = AssertionSystem(
        small_paper_db, [DEPT_CONSTRAINT], paper_transactions()
    )
    return Engine(
        system.maintainer,
        policy=DeferredEnforcingPolicy(),
        assertion_roots=system.roots,
        metrics=MetricsRegistry(),
    )


class TestTailFlushRejection:
    def test_rejected_tail_batch_preserves_report(self, enforcing_deferred_engine):
        engine = enforcing_deferred_engine
        before = {
            name: engine.db.relation(name).contents() for name in ("Emp", "Dept")
        }
        txns = [
            _raise_txn(engine.db, index=0, amount=1),
            _raise_txn(engine.db, index=1, amount=1),
            _raise_txn(engine.db, index=2, amount=10**6),  # violates DeptConstraint
        ]
        report = run_transactions(engine, txns, flush=True)
        # All three queued, the composed tail batch was rejected atomically:
        # they count as rejected, nothing is lost, nothing stays deferred.
        assert report.submitted == 3
        assert report.rejected == 3
        assert report.committed == 0
        assert report.deferred == 0
        assert engine.pending == 0
        for name, contents in before.items():
            assert engine.db.relation(name).contents() == contents
        engine.maintainer.verify()

    def test_clean_tail_batch_still_folds(self, enforcing_deferred_engine):
        engine = enforcing_deferred_engine
        report = run_transactions(
            engine, [_raise_txn(engine.db, amount=1)], flush=True
        )
        assert (report.committed, report.rejected) == (1, 0)
        assert report.io.total > 0

    def test_no_flush_leaves_work_deferred(self, enforcing_deferred_engine):
        engine = enforcing_deferred_engine
        report = run_transactions(
            engine, [_raise_txn(engine.db, amount=1)], flush=False
        )
        assert (report.deferred, report.committed) == (1, 0)
        assert engine.pending == 1

    def test_flush_exception_is_still_a_rejection_elsewhere(self, small_paper_db):
        # Sanity: outside the runner, the policy really does raise.
        system = AssertionSystem(
            small_paper_db, [DEPT_CONSTRAINT], paper_transactions()
        )
        engine = Engine(
            system.maintainer,
            policy=DeferredEnforcingPolicy(),
            assertion_roots=system.roots,
            metrics=MetricsRegistry(),
        )
        engine.execute(_raise_txn(engine.db, amount=10**6))
        with pytest.raises(AssertionViolation):
            engine.flush()


class TestReportMetrics:
    def test_metrics_delta_over_the_run(self, small_paper_db):
        engine = Engine(build_maintainer(small_paper_db), metrics=MetricsRegistry())
        txns = [_raise_txn(engine.db, index=i, amount=1) for i in range(3)]
        report = run_transactions(engine, txns)
        assert report.metrics["engine.commits"] == 3
        assert report.metrics["engine.commit_io.count"] == 3
        assert report.metrics["engine.commit_io.total"] == report.io.total

    def test_metrics_is_a_delta_not_a_snapshot(self, small_paper_db):
        engine = Engine(build_maintainer(small_paper_db), metrics=MetricsRegistry())
        engine.execute(_raise_txn(engine.db, amount=1))  # before the run
        report = run_transactions(engine, [_raise_txn(engine.db, index=1, amount=1)])
        assert report.metrics["engine.commits"] == 1

    def test_durable_gauges_do_not_bleed_across_runs(self, tmp_path):
        """Regression: the engine's _observe sets durable.* gauges from the
        store's *cumulative* PagerStats, and since() passes gauges through
        by value — so a second run_transactions over the same durable
        engine used to report run 1's traffic as its own. Metrics must be
        per-run deltas consistently."""
        from repro.storage.database import Database
        from repro.workload.paperdb import (
            DEPT_SCHEMA,
            EMP_SCHEMA,
            generate_corporate_db,
        )

        db = Database(durable_path=str(tmp_path / "store"), wal_sync="full")
        data = generate_corporate_db(20, 5, seed=7)
        db.create_relation("Dept", DEPT_SCHEMA, data["Dept"], indexes=[["DName"]])
        db.create_relation("Emp", EMP_SCHEMA, data["Emp"], indexes=[["DName"]])
        engine = Engine(build_maintainer(db), metrics=MetricsRegistry())

        first = run_transactions(
            engine, [_raise_txn(db, index=i, amount=1) for i in range(3)]
        )
        between = db.durable.stats.snapshot()
        second = run_transactions(
            engine, [_raise_txn(db, index=5, amount=1)]
        )
        # WAL records are strictly per-run: run 2 wrote fewer commits than
        # run 1, and neither includes the other's traffic.
        assert first.metrics["durable.wal_records"] > 0
        assert 0 < second.metrics["durable.wal_records"] < (
            first.metrics["durable.wal_records"]
        )
        # Every log counter is this run's delta, not the cumulative store
        # total (one fsync per commit under wal_sync="full").
        for key, value in db.durable.stats.since(between).items():
            if value:
                assert second.metrics[f"durable.{key}"] == value
        assert second.metrics["durable.fsyncs"] == 1
        assert db.durable.stats.fsyncs > 1
        db.close()

    def test_concurrent_runner_reports_per_run_metrics(self, small_paper_db):
        from repro.workload.runner import run_concurrent_transactions

        engine = Engine(build_maintainer(small_paper_db), metrics=MetricsRegistry())
        streams = [
            [_raise_txn(engine.db, index=i, amount=1)] for i in range(4)
        ]
        report, batches = run_concurrent_transactions(engine, streams, max_batch=4)
        assert report.submitted == 4 and report.rejected == 0
        assert report.committed == 4
        assert report.batches == len(batches) >= 1
        assert len(report.clients) == 4
        assert all(c.submitted == 1 for c in report.clients)
        assert report.metrics["commit_queue.submitted"] == 4
        assert report.io.total > 0
        engine.maintainer.verify()
