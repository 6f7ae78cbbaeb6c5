"""Unit tests for the compiled execution backend (:mod:`repro.algebra.compile`)."""

import logging
from dataclasses import dataclass
from typing import Any, Mapping

import pytest

from repro.algebra import compile as compile_mod
from repro.algebra.compile import (
    BACKENDS,
    PlanCache,
    PlanCacheStats,
    apply_group_aggregate,
    apply_join,
    apply_project,
    apply_select,
    compile_predicate,
    compile_row_mapper,
    compile_scalar,
    compile_tuple_getter,
    compiled_evaluate,
    default_backend,
    plan_cache,
    resolve_position,
    set_default_backend,
    tuple_getter,
)
from repro.algebra.evaluate import (
    evaluate,
    eval_dedup,
    eval_group_aggregate,
    eval_join,
    eval_project,
    eval_select,
)
from repro.algebra.multiset import Multiset
from repro.algebra.operators import (
    AggSpec,
    GroupAggregate,
    Join,
    Project,
    Scan,
    Select,
)
from repro.algebra.predicates import Compare, Predicate, TruePred
from repro.algebra.scalar import Arith, Col, Const, Scalar
from repro.algebra.schema import Schema
from repro.algebra.types import DataType
from repro.storage.pager import IOCounter
from repro.storage.relation import StorageError, StoredRelation

R = Scan("R", Schema.of(("a", DataType.INT), ("b", DataType.INT), ("c", DataType.INT)))
S = Scan("S", Schema.of(("c", DataType.INT), ("d", DataType.INT)))

R_DATA = Multiset([(1, 10, 0), (2, 20, 1), (3, 30, 1), (3, 30, 1)])
S_DATA = Multiset([(0, 100), (1, 200), (1, 300)])


class TestRowFunctions:
    def test_compile_scalar_reads_positions(self):
        fn = compile_scalar(Arith("+", Col("a"), Const(5)), ("a", "b"))
        assert fn((2, 9)) == 7
        assert "dict" not in fn.__repro_source__

    def test_qualified_and_bare_name_resolution(self):
        names = ("Emp.Name", "Salary")
        assert resolve_position("Emp.Name", names) == 0
        assert resolve_position("Name", names) == 0  # unique bare suffix
        assert resolve_position("Salary", names) == 1
        assert resolve_position("Missing", names) is None
        fn = compile_scalar(Col("Name"), names)
        assert fn(("alice", 10)) == "alice"

    def test_unresolvable_column_raises_per_row_not_at_compile_time(self):
        # Mirrors the interpreter: building the closure succeeds, evaluating
        # any row raises — so an empty input raises nothing.
        fn = compile_scalar(Col("nope"), ("a", "b"))
        with pytest.raises(KeyError):
            fn((1, 2))

    def test_compile_predicate(self):
        pred = Compare("<", Col("a"), Col("b"))
        fn = compile_predicate(pred, ("a", "b"))
        assert fn((1, 2)) is True
        assert fn((2, 1)) is False

    def test_compile_row_mapper(self):
        fn = compile_row_mapper((("x", Col("b")), ("y", Const(7))), ("a", "b"))
        assert fn((1, 2)) == (2, 7)

    def test_tuple_getter(self):
        fn = compile_tuple_getter([2, 0])
        assert fn((1, 2, 3)) == (3, 1)
        assert compile_tuple_getter([])(()) == ()
        # The dispatching wrapper is cached per positions tuple.
        assert tuple_getter([2, 0]) is tuple_getter((2, 0))

    def test_unknown_scalar_and_predicate_fall_back_to_interpreter(self):
        @dataclass(frozen=True)
        class Mod2(Scalar):
            name: str

            def eval(self, row: Mapping[str, Any]) -> Any:
                return row[self.name] % 2

            def columns(self):
                return frozenset({self.name})

            def output_type(self, schema):
                return DataType.INT

            def rename(self, mapping):
                return self

        @dataclass(frozen=True)
        class IsEven(Predicate):
            name: str

            def eval(self, row: Mapping[str, Any]) -> bool:
                return row[self.name] % 2 == 0

            def columns(self):
                return frozenset({self.name})

            def validate(self, schema):
                return None

            def rename(self, mapping):
                return self

        assert compile_scalar(Mod2("a"), ("a", "b"))((5, 0)) == 1
        assert compile_predicate(IsEven("b"), ("a", "b"))((5, 4)) is True
        expr = Select(R, IsEven("a"))
        assert evaluate(expr, {"R": R_DATA}, backend="compiled") == evaluate(
            expr, {"R": R_DATA}, backend="interpreted"
        )


class TestPlanCache:
    def test_hits_misses_invalidate_clear(self):
        cache = PlanCache()
        assert cache.get(("k", 1), lambda: "built") == "built"
        assert cache.get(("k", 1), lambda: "rebuilt") == "built"
        assert (cache.hits, cache.misses) == (1, 1)
        assert ("k", 1) in cache and len(cache) == 1
        assert cache.invalidate(("k", 1)) is True
        assert cache.invalidate(("k", 1)) is False
        assert cache.get(("k", 1), lambda: "rebuilt") == "rebuilt"
        cache.clear()
        assert len(cache) == 0
        cache.reset_stats()
        assert cache.stats == PlanCacheStats(entries=0, hits=0, misses=0, evictions=0)

    def test_lru_evicts_the_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(compile_mod, "PLAN_CACHE_CAPACITY", 2)
        cache = PlanCache()
        cache.get(("k", 1), lambda: "one")
        cache.get(("k", 2), lambda: "two")
        cache.get(("k", 1), lambda: "unused")  # 1 is now the most recent
        cache.get(("k", 3), lambda: "three")
        assert ("k", 1) in cache and ("k", 3) in cache and ("k", 2) not in cache
        assert cache.stats == PlanCacheStats(entries=2, hits=1, misses=3, evictions=1)

    def test_concurrent_gets_keep_counts_and_bound(self, monkeypatch):
        import sys
        import threading

        monkeypatch.setattr(compile_mod, "PLAN_CACHE_CAPACITY", 16)
        cache = PlanCache()
        wrong = []

        def work(seed):
            for i in range(2000):
                key = ("k", (seed * 7 + i) % 40)
                if cache.get(key, lambda: key) != key:
                    wrong.append(key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong
        assert cache.hits + cache.misses == 8 * 2000
        assert len(cache) <= 16

    def test_session_cache_hits_on_repeated_evaluate(self):
        cache = plan_cache()
        expr = Select(R, Compare(">", Col("b"), Const(15)))
        cache.invalidate(("plan", expr))
        cache.reset_stats()
        first = evaluate(expr, {"R": R_DATA}, backend="compiled")
        misses_after_first = cache.misses
        second = evaluate(expr, {"R": R_DATA}, backend="compiled")
        assert first == second
        assert cache.misses == misses_after_first  # plan reused
        assert cache.hits >= 1
        assert ("plan", expr) in cache

    def test_structural_sharing_across_equal_expressions(self):
        # Two independently-built equal expressions share one cache entry.
        e1 = Select(R, Compare("=", Col("c"), Const(1)))
        e2 = Select(R, Compare("=", Col("c"), Const(1)))
        assert e1 == e2 and e1 is not e2
        cache = plan_cache()
        cache.invalidate(("plan", e1))
        cache.reset_stats()
        evaluate(e1, {"R": R_DATA}, backend="compiled")
        before = cache.misses
        evaluate(e2, {"R": R_DATA}, backend="compiled")
        assert cache.misses == before


class TestBackendSelection:
    def test_default_backend_roundtrip(self):
        assert default_backend() == "compiled"
        set_default_backend("interpreted")
        try:
            assert default_backend() == "interpreted"
        finally:
            set_default_backend("compiled")

    @pytest.mark.parametrize("name", ["jit", "columnar"])
    def test_unknown_backend_rejected(self, name):
        # The error names every valid backend.
        with pytest.raises(ValueError, match="compiled.*interpreted"):
            set_default_backend(name)
        with pytest.raises(ValueError):
            evaluate(R, {"R": R_DATA}, backend=name)
        assert default_backend() == "compiled"

    @pytest.mark.parametrize("value", ["vectorised", "columnar"])
    def test_unknown_env_value_warns_and_falls_back(self, monkeypatch, caplog, value):
        monkeypatch.setenv("REPRO_EXEC_BACKEND", value)
        with caplog.at_level(logging.WARNING, logger="repro.algebra.compile"):
            with pytest.warns(RuntimeWarning, match="unknown REPRO_EXEC_BACKEND"):
                assert compile_mod._backend_from_env() == "compiled"
        # The fallback is also a logged event under a stable name.
        assert [(r.levelno, r.event, r.value, r.backend) for r in caplog.records] == [
            (logging.WARNING, "compile.backend_fallback", value, "compiled")
        ]

    def test_empty_env_value_is_silent(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "")
        assert compile_mod._backend_from_env() == "compiled"

    def test_backends_are_compiled_and_interpreted(self):
        assert BACKENDS == ("compiled", "interpreted")


class TestKernels:
    def test_trivially_true_select_returns_a_copy(self):
        expr = Select(R, TruePred())
        for fn in (eval_select, apply_select):
            out = fn(expr, R_DATA)
            assert out == R_DATA and out is not R_DATA

    def test_select_and_project_handle_negative_counts(self):
        # IVM deltas are signed multisets; kernels must filter/map them.
        delta = Multiset({(1, 10, 0): -2, (2, 20, 1): 3})
        sel = Select(R, Compare("=", Col("c"), Const(1)))
        proj = Project(R, (("b", Col("b")),))
        assert apply_select(sel, delta) == eval_select(sel, delta)
        assert apply_project(proj, delta) == eval_project(proj, delta)
        assert apply_select(sel, delta) == Multiset({(2, 20, 1): 3})

    def test_project_cancellation_strips_zero_counts(self):
        delta = Multiset({(1, 10, 0): -2, (2, 10, 1): 2})
        proj = Project(R, (("b", Col("b")),))
        assert apply_project(proj, delta) == Multiset()

    def test_dedup_and_aggregate_reject_negative_counts(self):
        negative = Multiset({(1, 10, 0): -1})
        agg = GroupAggregate(R, ("c",), (AggSpec("count", None, "n"),))
        with pytest.raises(ValueError):
            apply_project(Project(R, (("b", Col("b")),), dedup=True), negative)
        with pytest.raises(ValueError):
            eval_dedup(negative)
        for fn in (apply_group_aggregate, eval_group_aggregate):
            with pytest.raises(ValueError):
                fn(agg, negative)

    def test_join_kernel_matches_interpreter_both_orientations(self):
        join = Join(R, S)
        big_s = Multiset([(c, d) for c in range(3) for d in range(5)])
        for left, right in ((R_DATA, S_DATA), (R_DATA, big_s)):
            assert apply_join(join, left, right) == eval_join(join, left, right)

    def test_fused_pipeline_over_join(self):
        expr = Project(
            Select(Join(R, S), Compare(">", Col("d"), Const(150))),
            (("a", Col("a")), ("dd", Arith("*", Col("d"), Const(2)))),
        )
        source = {"R": R_DATA, "S": S_DATA}
        assert evaluate(expr, source, backend="compiled") == evaluate(
            expr, source, backend="interpreted"
        )

    def test_aggregate_kernel(self):
        agg = GroupAggregate(
            R,
            ("c",),
            (
                AggSpec("count", None, "n"),
                AggSpec("sum", Col("b"), "s"),
                AggSpec("avg", Col("b"), "m"),
            ),
        )
        assert apply_group_aggregate(agg, R_DATA) == eval_group_aggregate(agg, R_DATA)

    def test_compiled_evaluate_with_mapping(self):
        out = compiled_evaluate(Select(R, Compare(">", Col("b"), Const(15))), {"R": R_DATA})
        assert out == Multiset([(2, 20, 1), (3, 30, 1), (3, 30, 1)])


class TestProbeMany:
    def _relation(self) -> StoredRelation:
        rel = StoredRelation("R", R.schema, IOCounter())
        rel.load_multiset(R_DATA)
        rel.create_index(["c"])
        return rel

    def test_probe_many_equals_per_key_probes(self):
        a, b = self._relation(), self._relation()
        keys = [(0,), (1,), (99,)]  # one miss included
        batched = b.lookup_many(["c"], keys)
        merged = Multiset()
        for key in keys:
            merged.update(a.index_on(["c"]).probe(key))
        assert batched == merged
        # Identical I/O charges: 1 index read per key + 1 tuple read per match.
        assert a.counter.snapshot() == b.counter.snapshot()
        assert b.counter.snapshot().index_reads == 3
        assert b.counter.snapshot().tuple_reads == R_DATA.total()

    def test_probe_many_empty_keys(self):
        rel = self._relation()
        assert rel.lookup_many(["c"], []) == Multiset()
        assert rel.counter.total == 0

    def test_lookup_many_requires_index(self):
        rel = StoredRelation("R", R.schema, IOCounter())
        with pytest.raises(StorageError):
            rel.lookup_many(["b"], [(10,)])


class TestProbeBuckets:
    def _relation(self) -> StoredRelation:
        rel = StoredRelation("S", S.schema, IOCounter())
        rel.load_multiset(S_DATA)
        rel.create_index(["c"])
        return rel

    def test_probe_buckets_matches_probe_many(self):
        a, b = self._relation(), self._relation()
        keys = {(0,), (1,), (99,)}  # one miss included
        buckets = a.index_on(["c"]).probe_buckets(keys)
        assert set(buckets) == {(0,), (1,)}
        flattened = Multiset()
        for bucket in buckets.values():
            flattened.update(bucket)
        assert flattened == b.lookup_many(["c"], keys)
        # Bucket-grained and flattened probes charge identically.
        assert a.counter.snapshot() == b.counter.snapshot()

    def test_apply_join_fetched_equals_apply_join(self):
        from repro.algebra.compile import apply_join_fetched

        join = Join(R, S)
        rel = self._relation()
        keys = {(row[2],) for row in R_DATA.rows()}
        buckets = rel.index_on(["c"]).probe_buckets(keys)
        expected = apply_join(join, R_DATA, rel.lookup_many(["c"], keys))
        for backend in ("compiled", "interpreted"):
            set_default_backend(backend)
            try:
                assert apply_join_fetched(join, R_DATA, buckets) == expected
            finally:
                set_default_backend("compiled")
