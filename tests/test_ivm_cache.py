"""Unit tests for the commit-scoped caches (repro.ivm.cache).

Covers the CommitCache's partial-hit key splitting (including the cached
empty-result sentinel and caller-ownership of returned multisets), the
AdhocPlanCache's canonical shape signatures and LRU behavior, the
commit-cache constructor switch, the deterministic ad-hoc naming counter, the
iterative ``_topological`` on a deep chain, and the delta-signature keying
of the estimator's delta memo (stale-entry regression).
"""

import random

import pytest

from repro.algebra.multiset import Multiset
from repro.cost.estimates import DagEstimator
from repro.cost.model import CostConfig
from repro.cost.page_io import PageIOCostModel
from repro.dag.builder import build_dag
from repro.ivm.cache import (
    AdhocPlanCache,
    CommitCache,
    CommitCacheStats,
    adhoc_signature,
)
from repro.ivm.delta import Delta
from repro.ivm.maintainer import ViewMaintainer
from repro.storage.database import Database
from repro.storage.statistics import Catalog
from repro.workload.generators import chain_view, load_chain_database
from repro.workload.paperdb import DEPT_SCHEMA, EMP_SCHEMA, problem_dept_tree
from repro.workload.transactions import (
    Transaction,
    TransactionType,
    UpdateSpec,
    paper_transactions,
)

NAMES = ("DName", "Budget")
COLS = frozenset({"DName"})


def _rows(*items):
    ms = Multiset()
    for row in items:
        ms.add(row, 1)
    return ms


class TestCommitCacheFetch:
    def test_pure_miss_then_full_hit(self):
        cache = CommitCache()
        calls = []

        def compute(keys):
            calls.append(set(keys))
            return _rows(("a", 1), ("b", 2))

        first = cache.fetch(1, COLS, {("a",), ("b",)}, NAMES, compute)
        assert first == _rows(("a", 1), ("b", 2))
        assert calls == [{("a",), ("b",)}]
        second = cache.fetch(1, COLS, {("a",), ("b",)}, NAMES, compute)
        assert second == first
        assert calls == [{("a",), ("b",)}]  # no recompute
        assert cache.stats.fetch_hits == 2
        assert cache.stats.fetch_misses == 2

    def test_partial_hit_fetches_only_missing_keys(self):
        cache = CommitCache()
        store = {("a",): ("a", 1), ("b",): ("b", 2), ("c",): ("c", 3)}
        calls = []

        def compute(keys):
            calls.append(set(keys))
            out = Multiset()
            for k in keys:
                if k in store:
                    out.add(store[k], 1)
            return out

        cache.fetch(7, COLS, {("a",), ("b",)}, NAMES, compute)
        merged = cache.fetch(7, COLS, {("b",), ("c",)}, NAMES, compute)
        assert merged == _rows(("b", 2), ("c", 3))
        # The overlap ("b") must not be re-fetched.
        assert calls == [{("a",), ("b",)}, {("c",)}]
        assert cache.stats.fetch_hits == 1
        assert cache.stats.fetch_misses == 3

    def test_empty_results_are_cached(self):
        cache = CommitCache()
        calls = []

        def compute(keys):
            calls.append(set(keys))
            return Multiset()  # no rows match

        assert not cache.fetch(3, COLS, {("zz",)}, NAMES, compute)
        assert not cache.fetch(3, COLS, {("zz",)}, NAMES, compute)
        assert len(calls) == 1  # the repeated miss costs nothing
        assert cache.stats.fetch_hits == 1

    def test_returned_multisets_are_caller_owned(self):
        cache = CommitCache()
        backing = _rows(("a", 1))
        first = cache.fetch(1, COLS, {("a",)}, NAMES, lambda keys: backing.copy())
        first.add(("mutated", 9), 5)
        second = cache.fetch(1, COLS, {("a",)}, NAMES, lambda keys: backing.copy())
        assert second == _rows(("a", 1))  # the mutation did not leak back

    def test_distinct_column_sets_do_not_collide(self):
        cache = CommitCache()
        a = cache.fetch(1, frozenset({"DName"}), {("a",)}, NAMES, lambda k: _rows(("a", 1)))
        b = cache.fetch(
            1, frozenset({"Budget"}), {(1,)}, NAMES, lambda k: _rows(("a", 1))
        )
        assert a == b
        assert cache.stats.fetch_misses == 2  # separate entries, both computed

    def test_multi_column_keys_split_correctly(self):
        cache = CommitCache()
        cols = frozenset({"DName", "Budget"})
        rows = _rows(("a", 1), ("b", 2))
        # Keys are tuples over sorted(columns): (Budget, DName).
        out = cache.fetch(1, cols, {(1, "a"), (2, "b")}, NAMES, lambda k: rows.copy())
        assert out == rows
        # Hit each key individually.
        one = cache.fetch(1, cols, {(2, "b")}, NAMES, lambda k: Multiset())
        assert one == _rows(("b", 2))
        assert cache.stats.fetch_hits == 1


class TestCommitCacheScan:
    def test_scan_computed_once(self):
        cache = CommitCache()
        calls = []

        def compute():
            calls.append(1)
            return _rows(("a", 1))

        first = cache.scan(4, compute)
        second = cache.scan(4, compute)
        assert first == second == _rows(("a", 1))
        assert len(calls) == 1
        assert cache.stats.scan_hits == 1
        assert cache.stats.scan_misses == 1
        # Hits return copies: mutating one must not corrupt the memo.
        second.add(("x", 0), 1)
        assert cache.scan(4, compute) == _rows(("a", 1))

    def test_io_saved_uses_measured_cost(self):
        from repro.storage.pager import IOCounter

        counter = IOCounter()
        cache = CommitCache(counter)

        def compute():
            counter.charge_tuple_read(5)
            return _rows(("a", 1))

        cache.scan(4, compute)
        assert cache.stats.io_saved == 0.0
        cache.scan(4, compute)
        assert cache.stats.io_saved == 5.0


class TestCommitCacheStats:
    def test_fold_accumulates(self):
        total = CommitCacheStats()
        one = CommitCacheStats()
        one.fetch_hits, one.fetch_misses, one.io_saved = 2, 3, 7.5
        total.fold(one)
        total.fold(one)
        assert total.fetch_hits == 4 and total.fetch_misses == 6
        assert total.io_saved == 15.0
        assert "4 hits" in total.describe()


class TestAdhocSignature:
    def _spec(self, **kw):
        return UpdateSpec(**kw)

    def test_same_shape_same_signature(self):
        marking = frozenset({3, 5})
        a = {"Emp": self._spec(modifies=1, modified_columns=frozenset({"Salary"}))}
        b = {"Emp": self._spec(modifies=40, modified_columns=frozenset({"Salary"}))}
        # Sizes are excluded: a 1-row and a 40-row modification of the same
        # columns share a plan.
        assert adhoc_signature(a, marking) == adhoc_signature(b, marking)

    def test_different_modified_columns_differ(self):
        marking = frozenset({3})
        a = {"Emp": self._spec(modifies=1, modified_columns=frozenset({"Salary"}))}
        b = {"Emp": self._spec(modifies=1, modified_columns=frozenset({"DName"}))}
        assert adhoc_signature(a, marking) != adhoc_signature(b, marking)

    def test_kind_shape_matters(self):
        marking = frozenset()
        ins = {"Emp": self._spec(inserts=2)}
        dels = {"Emp": self._spec(deletes=2)}
        both = {"Emp": self._spec(inserts=1, deletes=1)}
        sigs = {adhoc_signature(u, marking) for u in (ins, dels, both)}
        assert len(sigs) == 3

    def test_marking_matters(self):
        u = {"Emp": self._spec(inserts=1)}
        assert adhoc_signature(u, frozenset({1})) != adhoc_signature(u, frozenset({2}))

    def test_relation_order_is_canonical(self):
        marking = frozenset()
        a = {"Emp": self._spec(inserts=1), "Dept": self._spec(deletes=1)}
        b = {"Dept": self._spec(deletes=1), "Emp": self._spec(inserts=1)}
        assert adhoc_signature(a, marking) == adhoc_signature(b, marking)


class TestAdhocPlanCache:
    def test_hit_miss_counting(self):
        cache = AdhocPlanCache(capacity=4)
        assert cache.get(("a",)) is None
        cache.put(("a",), {1: None})
        assert cache.get(("a",)) == {1: None}
        assert cache.stats.misses == 1 and cache.stats.hits == 1

    def test_lru_eviction(self):
        cache = AdhocPlanCache(capacity=2)
        cache.put(("a",), {1: None})
        cache.put(("b",), {2: None})
        cache.get(("a",))  # refresh a — b is now least recent
        cache.put(("c",), {3: None})
        assert cache.get(("b",)) is None  # evicted
        assert cache.get(("a",)) is not None
        assert cache.stats.evictions == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            AdhocPlanCache(capacity=0)


class TestEnvSwitches:
    def test_commit_cache_flag(self, monkeypatch):
        """The constructor parameter is the only switch: the retired
        ``REPRO_COMMIT_CACHE`` variable no longer turns the cache off."""
        monkeypatch.setenv("REPRO_COMMIT_CACHE", "0")
        _, default = _paper_maintainer()
        assert default._commit_cache_enabled
        _, off = _paper_maintainer(commit_cache=False)
        assert not off._commit_cache_enabled


# -- maintainer integration -----------------------------------------------------------


def _paper_maintainer(**kwargs):
    rng = random.Random(5)
    db = Database()
    depts = [(f"dp{i}", "m", rng.randint(100, 900)) for i in range(4)]
    emps = [
        (f"e{i}", f"dp{rng.randrange(4)}", rng.randint(5, 30)) for i in range(12)
    ]
    db.create_relation("Dept", DEPT_SCHEMA, depts, indexes=[["DName"]])
    db.create_relation("Emp", EMP_SCHEMA, emps, indexes=[["DName"]])
    dag = build_dag(problem_dept_tree())
    estimator = DagEstimator(dag.memo, Catalog.from_database(db))
    cost_model = PageIOCostModel(
        dag.memo, estimator, CostConfig(root_group=dag.root)
    )
    txns = paper_transactions()
    maintainer = ViewMaintainer(
        db,
        dag,
        frozenset({dag.root}),
        txns,
        {t.name: {} for t in txns},
        estimator,
        cost_model,
        **kwargs,
    )
    maintainer.materialize()
    return db, maintainer


class TestMaintainerWiring:
    def test_constructor_switches(self):
        _, on = _paper_maintainer(commit_cache=True, plan_cache=8)
        assert on._commit_cache_enabled
        assert on.plan_cache is not None and on.plan_cache.capacity == 8
        _, off = _paper_maintainer(commit_cache=False, plan_cache=0)
        assert not off._commit_cache_enabled
        assert off.plan_cache is None

    def test_commit_cache_dropped_after_apply(self):
        db, maintainer = _paper_maintainer(commit_cache=True)
        emp = sorted(db.relation("Emp").contents().rows())[0]
        txn = Transaction(
            ">Emp", {"Emp": Delta.modification([(emp, (emp[0], emp[1], emp[2] + 1))])}
        )
        maintainer.apply(txn)
        assert maintainer._commit_cache is None  # scoped to the propagation phase
        assert maintainer.last_cache_stats is not None
        maintainer.verify()

    def test_adhoc_plan_cache_hits_on_same_shape(self):
        db, maintainer = _paper_maintainer(plan_cache=8)
        rows = sorted(db.relation("Emp").contents().rows())
        for i, old in enumerate(rows[:3]):
            txn = Transaction(
                "dml",
                {"Emp": Delta.modification([(old, (old[0], old[1], old[2] + 1))])},
            )
            maintainer.apply_adhoc(txn)
        assert maintainer.plan_cache.stats.misses == 1
        assert maintainer.plan_cache.stats.hits == 2
        maintainer.verify()


class TestIterativeTopological:
    def test_deep_chain_does_not_recurse(self):
        """~2000-node linear track: the explicit stack must not hit the
        interpreter recursion limit (the recursive visit() did)."""
        import sys

        class _Op:
            __slots__ = ("child_ids",)

            def __init__(self, child_ids):
                self.child_ids = child_ids

        class _Memo:
            @staticmethod
            def find(gid):
                return gid

        class _Stub:
            memo = _Memo()

        depth = 2000
        track = {0: _Op(())}
        for gid in range(1, depth):
            track[gid] = _Op((gid - 1,))
        limit = sys.getrecursionlimit()
        assert depth > limit  # the test is vacuous otherwise
        order = ViewMaintainer._topological(_Stub(), track)
        assert order == list(range(depth))  # children strictly first

    def test_matches_recursive_order_on_dags(self):
        """The iterative walk preserves the recursive version's exact
        post-order on branchy tracks (shared children, multiple roots)."""

        class _Op:
            __slots__ = ("child_ids",)

            def __init__(self, child_ids):
                self.child_ids = child_ids

        class _Memo:
            @staticmethod
            def find(gid):
                return gid

        class _Stub:
            memo = _Memo()

        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(1, 12)
            track = {}
            for gid in range(n):
                pool = list(range(gid))
                rng.shuffle(pool)
                track[gid] = _Op(tuple(pool[: rng.randint(0, min(3, gid))]))

            def reference(track):
                order, seen = [], set()

                def visit(gid):
                    if gid in seen or gid not in track:
                        return
                    seen.add(gid)
                    for cid in track[gid].child_ids:
                        visit(cid)
                    order.append(gid)

                for gid in sorted(track):
                    visit(gid)
                return order

            assert ViewMaintainer._topological(_Stub(), track) == reference(track)


class TestDeltaSignatureMemo:
    def test_repeated_adhoc_names_do_not_poison_estimates(self):
        """Regression: DagEstimator.delta memoized by (gid, txn.name), so a
        re-used ad-hoc name ("__shell", a recycled id()) with a *different*
        spec returned the first spec's stale DeltaStats."""
        db = load_chain_database(3, 50, seed=1)
        dag = build_dag(chain_view(3))
        estimator = DagEstimator(dag.memo, Catalog.from_database(db))
        mod = TransactionType(
            "__shell",
            {"R1": UpdateSpec(modifies=1, modified_columns=frozenset({"V1"}))},
        )
        ins = TransactionType("__shell", {"R1": UpdateSpec(inserts=5)})
        gid = dag.memo.leaf_group_id("R1")
        first = estimator.delta(gid, mod)
        second = estimator.delta(gid, ins)
        assert first is not None and second is not None
        assert first.modifies == 1 and first.inserts == 0
        assert second.inserts == 5 and second.modifies == 0  # not the stale entry

    def test_adhoc_row_counts_do_not_grow_the_delta_memo(self):
        """Regression: an aggregate's full-groups test asked the estimator
        for the delta at each ad-hoc commit's own row counts, so every new
        count added memo entries. Completeness is decided per shape."""
        db, maintainer = _paper_maintainer(plan_cache=8)

        def raise_first(k):
            rows = sorted(db.relation("Emp").rows())[:k]
            pairs = [(old, (old[0], old[1], old[2] + 1)) for old in rows]
            maintainer.apply_adhoc(Transaction("dml", {"Emp": Delta.modification(pairs)}))

        raise_first(1)
        entries = len(maintainer.estimator._deltas)
        for k in range(2, 13):
            raise_first(k)
        assert len(maintainer.estimator._deltas) == entries
        assert maintainer.plan_cache.stats.misses == 1
        maintainer.verify()

    def test_shape_keeps_kinds_and_columns_and_drops_sizes(self):
        a = TransactionType(
            "x",
            {
                "R1": UpdateSpec(inserts=7, modifies=3, modified_columns=frozenset({"V1"})),
                "R2": UpdateSpec(deletes=0.5),
            },
        )
        b = TransactionType(
            "x",
            {
                "R1": UpdateSpec(inserts=2, modifies=40, modified_columns=frozenset({"V1"})),
                "R2": UpdateSpec(deletes=9),
            },
        )
        assert a.delta_signature != b.delta_signature
        assert a.shape.delta_signature == b.shape.delta_signature == (
            ("R1", 1.0, 0.0, 1.0, ("V1",)),
            ("R2", 0.0, 1.0, 0.0, ()),
        )

    def test_signature_excludes_name_and_weight(self):
        a = TransactionType("x", {"R1": UpdateSpec(inserts=2)}, weight=1.0)
        b = TransactionType("y", {"R1": UpdateSpec(inserts=2)}, weight=9.0)
        assert a.delta_signature == b.delta_signature
        c = TransactionType("x", {"R1": UpdateSpec(inserts=3)})
        assert a.delta_signature != c.delta_signature
