"""Unit tests for the batch evaluator (the semantics oracle)."""

import pytest

from repro.algebra.evaluate import MappingSource, evaluate
from repro.algebra.multiset import Multiset
from repro.algebra.operators import (
    AggSpec,
    Difference,
    GroupAggregate,
    Join,
    Project,
    Scan,
    Select,
    Union,
    project_columns,
)
from repro.algebra.predicates import Compare
from repro.algebra.scalar import Arith, Col, col, lit
from repro.algebra.schema import Schema
from repro.algebra.types import DataType
from repro.workload.paperdb import dept_scan, emp_scan

DB = {
    "Emp": Multiset(
        [
            ("alice", "toys", 50),
            ("bob", "toys", 60),
            ("carol", "books", 40),
            ("dan", "ghost", 10),  # department without a Dept row
        ]
    ),
    "Dept": Multiset([("toys", "m1", 100), ("books", "m2", 90), ("empty", "m3", 5)]),
}


class TestScanSelect:
    def test_scan(self):
        assert evaluate(emp_scan(), DB).total() == 4

    def test_unknown_relation(self):
        with pytest.raises(KeyError):
            evaluate(Scan("Nope", Schema.of(("x", DataType.INT))), DB)

    def test_select(self):
        sel = Select(emp_scan(), Compare(">", col("Salary"), lit(45)))
        assert sorted(evaluate(sel, DB).rows()) == [
            ("alice", "toys", 50),
            ("bob", "toys", 60),
        ]

    def test_select_preserves_counts(self):
        db = {"Emp": Multiset([("a", "d", 1), ("a", "d", 1)])}
        sel = Select(emp_scan(), Compare(">", col("Salary"), lit(0)))
        assert evaluate(sel, db).count(("a", "d", 1)) == 2


class TestProject:
    def test_computed_column(self):
        p = Project(emp_scan(), (("EName", Col("EName")), ("Y", Arith("*", col("Salary"), lit(2)))))
        result = evaluate(p, DB)
        assert ("alice", 100) in result

    def test_multiset_projection_keeps_counts(self):
        p = project_columns(emp_scan(), ["DName"])
        assert evaluate(p, DB).count(("toys",)) == 2

    def test_dedup_projection(self):
        p = project_columns(emp_scan(), ["DName"], dedup=True)
        assert evaluate(p, DB).count(("toys",)) == 1


class TestJoin:
    def test_natural_join(self):
        j = Join(emp_scan(), dept_scan())
        result = evaluate(j, DB)
        # dan's ghost department and the empty department drop out.
        assert result.total() == 3
        names = j.schema.names
        row = next(r for r in result.rows() if r[names.index("EName")] == "alice")
        assert row[names.index("Budget")] == 100

    def test_join_multiplicity(self):
        db = {
            "Emp": Multiset({("a", "toys", 1): 2}),
            "Dept": Multiset({("toys", "m", 5): 3}),
        }
        j = Join(emp_scan(), dept_scan())
        assert evaluate(j, db).total() == 6

    def test_residual_filters(self):
        j = Join(
            emp_scan(),
            dept_scan(),
            residual=Compare(">", col("Salary"), lit(55)),
        )
        assert evaluate(j, DB).total() == 1

    def test_cartesian(self):
        other = Scan("X", Schema.of(("Z", DataType.INT)))
        j = Join(emp_scan(), other, allow_cartesian=True)
        db = dict(DB)
        db["X"] = Multiset([(1,), (2,)])
        assert evaluate(j, db).total() == 8


class TestAggregate:
    def test_sum_by_group(self):
        agg = GroupAggregate(emp_scan(), ("DName",), (AggSpec("sum", col("Salary"), "S"),))
        result = evaluate(agg, DB)
        assert ("toys", 110) in result
        assert ("books", 40) in result

    def test_count_min_max_avg(self):
        agg = GroupAggregate(
            emp_scan(),
            ("DName",),
            (
                AggSpec("avg", col("Salary"), "A"),
                AggSpec("count", None, "C"),
                AggSpec("max", col("Salary"), "Mx"),
                AggSpec("min", col("Salary"), "Mn"),
            ),
        )
        result = evaluate(agg, DB)
        # Aggregates are canonicalized by output name: A, C, Mn, Mx... by out name sorted: A, C, Mx, Mn -> 'A','C','Mn','Mx'
        names = agg.schema.names
        row = next(r for r in result.rows() if r[0] == "toys")
        as_dict = dict(zip(names, row))
        assert as_dict["A"] == 55.0
        assert as_dict["C"] == 2
        assert as_dict["Mn"] == 50
        assert as_dict["Mx"] == 60

    def test_empty_groups_absent(self):
        agg = GroupAggregate(emp_scan(), ("DName",), (AggSpec("sum", col("Salary"), "S"),))
        result = evaluate(agg, {"Emp": Multiset()})
        assert not result

    def test_counts_weight_aggregates(self):
        db = {"Emp": Multiset({("a", "toys", 10): 3})}
        agg = GroupAggregate(emp_scan(), ("DName",), (AggSpec("sum", col("Salary"), "S"),))
        assert evaluate(agg, db).count(("toys", 30)) == 1

    def test_negative_counts_rejected(self):
        agg = GroupAggregate(emp_scan(), ("DName",), (AggSpec("sum", col("Salary"), "S"),))
        with pytest.raises(ValueError):
            evaluate(agg, {"Emp": Multiset({("a", "toys", 10): -1})})


class TestSetOps:
    def test_union_all(self):
        u = Union(emp_scan(), emp_scan())
        assert evaluate(u, DB).count(("alice", "toys", 50)) == 2

    def test_except_all(self):
        d = Difference(Union(emp_scan(), emp_scan()), emp_scan())
        assert evaluate(d, DB).count(("alice", "toys", 50)) == 1

    def test_dedup(self):
        d = project_columns(Union(emp_scan(), emp_scan()), emp_scan().schema.names, dedup=True)
        assert evaluate(d, DB).count(("alice", "toys", 50)) == 1


class TestMappingSource:
    def test_wraps_dict(self):
        source = MappingSource(DB)
        assert source.multiset("Emp").total() == 4
        with pytest.raises(KeyError):
            source.multiset("Nope")
