"""Tests for the transaction-stream runners.

The regression anchored here: a rejected rider must never blow away the
:class:`StreamReport` or take the other riders of its batch with it. On an
enforcing engine a composed batch that enters a violation is rolled back
and replayed rider by rider, so only the violator counts as ``rejected``
and the report keeps every commit already tallied.
"""

import pytest

from repro.constraints.assertions import AssertionSystem, AssertionViolation
from repro.engine import Engine
from repro.ivm.delta import Delta
from repro.server.commit import GroupCommitter
from repro.workload.runner import run_concurrent_transactions, run_transactions
from repro.workload.transactions import Transaction, paper_transactions
from tests.test_engine import DEPT_CONSTRAINT, build_maintainer, emp_raise


def _raise_txn(db, index=0, amount=5):
    old, new = emp_raise(db, index=index, amount=amount)
    return Transaction(">Emp", {"Emp": Delta.modification([(old, new)])})


@pytest.fixture
def enforcing_system(small_paper_db):
    system = AssertionSystem(
        small_paper_db, [DEPT_CONSTRAINT], paper_transactions()
    )
    engine = Engine(
        system.maintainer,
        enforce=True,
        assertion_roots=system.roots,
    )
    return system, engine


class TestEnforcingBatch:
    def test_rejected_rider_preserves_report(self, enforcing_system):
        system, engine = enforcing_system
        txns = [
            _raise_txn(engine.db, index=0, amount=1),
            _raise_txn(engine.db, index=1, amount=1),
            _raise_txn(engine.db, index=2, amount=10**6),  # violates DeptConstraint
        ]
        report, batches = run_concurrent_transactions(
            engine, [[txn] for txn in txns], max_batch=4
        )
        # However the riders were batched, only the violator was rejected.
        assert (report.submitted, report.committed, report.rejected) == (3, 2, 1)
        emps = engine.db.relation("Emp").contents()
        for txn, applied in zip(txns, (True, True, False)):
            (old, new), = txn.deltas["Emp"].modifies
            assert (new in emps) is applied and (old in emps) is not applied
        assert system.all_satisfied()
        engine.maintainer.verify()

    def test_clean_batch_still_folds(self, enforcing_system):
        _system, engine = enforcing_system
        report, _ = run_concurrent_transactions(
            engine, [[_raise_txn(engine.db, amount=1)]]
        )
        assert (report.committed, report.rejected) == (1, 0)
        assert report.io.total > 0

    def test_commit_batch_rejects_only_the_violator(self, enforcing_system):
        system, engine = enforcing_system
        committer = GroupCommitter(engine)
        requests = committer.commit_batch(
            [
                _raise_txn(engine.db, index=0, amount=1),
                _raise_txn(engine.db, index=2, amount=10**6),
                _raise_txn(engine.db, index=1, amount=1),
            ]
        )
        record = committer.batches[-1]
        assert record.replayed and record.batch_result is None
        assert isinstance(requests[1].error, AssertionViolation)
        assert [r.error is None for r in requests] == [True, False, True]
        # Two rejections: the composed batch, then the violator replayed alone.
        assert engine.metrics.snapshot()["engine.rejected"] == 2
        assert system.all_satisfied()
        engine.maintainer.verify()

    def test_clean_commit_batch_commits_once(self, enforcing_system):
        _system, engine = enforcing_system
        committer = GroupCommitter(engine)
        requests = committer.commit_batch(
            [_raise_txn(engine.db, index=i, amount=1) for i in range(3)]
        )
        record = committer.batches[-1]
        assert not record.replayed
        assert record.batch_result is not None and record.batch_result.io.total > 0
        assert all(r.result.committed and r.result.io.total == 0 for r in requests)
        assert engine.metrics.snapshot()["engine.commits"] == 1


class TestReportMetrics:
    def test_metrics_delta_over_the_run(self, small_paper_db):
        engine = Engine(build_maintainer(small_paper_db))
        txns = [_raise_txn(engine.db, index=i, amount=1) for i in range(3)]
        report = run_transactions(engine, txns)
        assert report.metrics["engine.commits"] == 3
        assert report.metrics["engine.commit_io.count"] == 3
        assert report.metrics["engine.commit_io.total"] == report.io.total

    def test_metrics_is_a_delta_not_a_snapshot(self, small_paper_db):
        engine = Engine(build_maintainer(small_paper_db))
        engine.execute(_raise_txn(engine.db, amount=1))  # before the run
        report = run_transactions(engine, [_raise_txn(engine.db, index=1, amount=1)])
        assert report.metrics["engine.commits"] == 1

    def test_cache_counts_are_per_run(self, small_paper_db):
        """Regression: the engine copied the caches' cumulative counts into
        gauges on every commit, and since() passed gauges through by value,
        so a second run over one engine reported the first run's cache
        traffic as its own. Every cache count is now this run's."""
        from repro.algebra.compile import plan_cache

        engine = Engine(build_maintainer(small_paper_db))
        maintainer = engine.maintainer

        def owned():
            cc, adhoc, pc = maintainer.commit_cache_stats, maintainer.plan_cache.stats, plan_cache()
            return {
                "cache.commit.hits": cc.hits,
                "cache.commit.misses": cc.misses,
                "cache.commit.io_saved": cc.io_saved,
                "cache.adhoc_plan.hits": adhoc.hits,
                "cache.adhoc_plan.misses": adhoc.misses,
                "cache.plan.hits": pc.hits,
                "cache.plan.misses": pc.misses,
            }

        def stream(indexes):
            # Declared >Emp commits and same-shaped ad-hoc ones, which plan
            # through the ad-hoc plan cache.
            for i in indexes:
                txn = _raise_txn(engine.db, index=i, amount=1)
                yield txn if i % 2 else Transaction("raise", txn.deltas)

        runs = []
        for indexes in (range(0, 8), range(8, 11)):
            before = owned()
            report = run_transactions(engine, stream(indexes))
            own = {name: value - before[name] for name, value in owned().items()}
            assert {name: report.metrics.get(name, 0) for name in own} == own
            runs.append(own)
        second = runs[1]
        assert second["cache.commit.misses"] > 0
        assert second["cache.adhoc_plan.hits"] > 0

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
        engine = Engine(build_maintainer(db))

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

        engine = Engine(build_maintainer(small_paper_db))
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

    def test_concurrent_runner_reraises_a_rider_failure(self, small_paper_db):
        """A rider whose commit raises anything but a rejection stops its
        client, and the runner re-raises that exception after every client
        has stopped — it used to die with the client thread, leaving a
        report that looked complete."""
        from repro.storage.relation import StorageError
        from repro.workload.runner import run_concurrent_transactions

        engine = Engine(build_maintainer(small_paper_db))
        ghost = ("ghost", "dept00000", 1)
        absent = Transaction(">Emp", {"Emp": Delta.modification([(ghost, ghost[:2] + (2,))])})
        streams = [
            [absent, _raise_txn(engine.db, index=0, amount=1)],
            [_raise_txn(engine.db, index=1, amount=1)],
        ]
        with pytest.raises(StorageError, match="modify of absent tuple"):
            run_concurrent_transactions(engine, streams, max_batch=4)
        engine.maintainer.verify()
