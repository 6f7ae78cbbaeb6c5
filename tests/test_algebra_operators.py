"""Unit tests for logical operators: schemas, keys, structural equality."""

import pytest

from repro.algebra.operators import (
    AggSpec,
    AlgebraError,
    Difference,
    GroupAggregate,
    Join,
    Project,
    Scan,
    Select,
    Union,
    natural_join,
    project_columns,
)
from repro.algebra.predicates import Compare
from repro.algebra.scalar import Arith, Col, col, lit
from repro.algebra.schema import Schema
from repro.algebra.types import DataType
from repro.workload.paperdb import DEPT_SCHEMA, EMP_SCHEMA, dept_scan, emp_scan


class TestScan:
    def test_schema_is_base(self):
        scan = emp_scan()
        assert scan.schema.names == ("EName", "DName", "Salary")

    def test_no_children(self):
        assert emp_scan().children == ()

    def test_equality(self):
        assert emp_scan() == emp_scan()
        assert emp_scan() != dept_scan()

    def test_base_relations(self):
        assert emp_scan().base_relations() == {"Emp"}


class TestSelect:
    def test_schema_passthrough(self):
        sel = Select(emp_scan(), Compare(">", col("Salary"), lit(10)))
        assert sel.schema.names == emp_scan().schema.names

    def test_predicate_validated(self):
        from repro.algebra.types import TypeError_

        with pytest.raises(TypeError_):
            Select(emp_scan(), Compare(">", col("Salary"), col("EName")))

    def test_with_children(self):
        sel = Select(emp_scan(), Compare(">", col("Salary"), lit(10)))
        rebuilt = sel.with_children((emp_scan(),))
        assert rebuilt == sel


class TestProject:
    def test_output_schema(self):
        p = Project(emp_scan(), (("Name", Col("EName")), ("Double", Arith("*", col("Salary"), lit(2)))))
        assert p.schema.names == ("Name", "Double")
        assert p.schema.dtype_of("Double") is DataType.INT

    def test_key_preserved_through_rename(self):
        p = Project(emp_scan(), (("Name", Col("EName")), ("Sal", Col("Salary"))))
        assert p.schema.has_key(["Name"])

    def test_key_dropped_when_column_dropped(self):
        p = project_columns(emp_scan(), ["DName", "Salary"])
        assert not p.schema.keys

    def test_dedup_output_is_key(self):
        p = project_columns(emp_scan(), ["DName"], dedup=True)
        assert p.schema.has_key(["DName"])

    def test_duplicate_output_names_rejected(self):
        with pytest.raises(AlgebraError):
            Project(emp_scan(), (("x", Col("EName")), ("x", Col("DName"))))

    def test_empty_projection_rejected(self):
        with pytest.raises(AlgebraError):
            Project(emp_scan(), ())


class TestJoin:
    def test_natural_join_merges_shared(self):
        j = Join(emp_scan(), dept_scan())
        assert j.join_columns == ("DName",)
        # Shared column appears once; output is name-sorted.
        assert j.schema.names == ("Budget", "DName", "EName", "MName", "Salary")

    def test_key_derivation(self):
        j = Join(emp_scan(), dept_scan())
        # DName is a key of Dept, so Emp's key survives; not vice versa.
        assert j.schema.has_key(["EName"])
        assert not j.schema.has_key(["DName"])

    def test_cartesian_requires_flag(self):
        other = Scan("X", Schema.of(("Z", DataType.INT)))
        with pytest.raises(AlgebraError):
            Join(emp_scan(), other)
        j = Join(emp_scan(), other, allow_cartesian=True)
        assert "Z" in j.schema

    def test_type_mismatch_rejected(self):
        other = Scan("X", Schema.of(("DName", DataType.INT)))
        with pytest.raises(AlgebraError):
            Join(emp_scan(), other)

    def test_commuted_joins_have_same_schema(self):
        a = Join(emp_scan(), dept_scan())
        b = Join(dept_scan(), emp_scan())
        assert a.schema.names == b.schema.names

    def test_residual_validated_on_merged_schema(self):
        j = Join(emp_scan(), dept_scan(), residual=Compare("<", col("Salary"), col("Budget")))
        assert j.residual.conjuncts()

    def test_natural_join_helper(self):
        assert natural_join(emp_scan(), dept_scan()) == Join(emp_scan(), dept_scan())


class TestGroupAggregate:
    def test_schema_and_key(self):
        agg = GroupAggregate(
            emp_scan(), ("DName",), (AggSpec("sum", col("Salary"), "SalSum"),)
        )
        assert agg.schema.names == ("DName", "SalSum")
        assert agg.schema.has_key(["DName"])

    def test_group_by_canonicalized_sorted(self):
        j = Join(emp_scan(), dept_scan())
        a = GroupAggregate(j, ("DName", "Budget"), (AggSpec("sum", col("Salary"), "S"),))
        b = GroupAggregate(j, ("Budget", "DName"), (AggSpec("sum", col("Salary"), "S"),))
        assert a == b

    def test_count_star(self):
        agg = GroupAggregate(emp_scan(), ("DName",), (AggSpec("count", None, "N"),))
        assert agg.schema.dtype_of("N") is DataType.INT

    def test_avg_is_float(self):
        agg = GroupAggregate(emp_scan(), ("DName",), (AggSpec("avg", col("Salary"), "A"),))
        assert agg.schema.dtype_of("A") is DataType.FLOAT

    def test_sum_requires_numeric(self):
        from repro.algebra.types import TypeError_

        with pytest.raises(TypeError_):
            GroupAggregate(emp_scan(), ("DName",), (AggSpec("sum", col("EName"), "S"),))

    def test_unknown_function_rejected(self):
        with pytest.raises(AlgebraError):
            AggSpec("median", col("Salary"), "m")

    def test_sum_without_arg_rejected(self):
        with pytest.raises(AlgebraError):
            AggSpec("sum", None, "s")

    def test_duplicate_output_names_rejected(self):
        with pytest.raises(AlgebraError):
            GroupAggregate(
                emp_scan(),
                ("DName",),
                (AggSpec("sum", col("Salary"), "DName"),),
            )


class TestSetOperators:
    def test_union_compatible(self):
        u = Union(emp_scan(), emp_scan())
        assert u.schema.names == emp_scan().schema.names

    def test_union_incompatible(self):
        with pytest.raises(AlgebraError):
            Union(emp_scan(), dept_scan())

    def test_difference_keeps_left_keys(self):
        d = Difference(emp_scan(), emp_scan())
        assert d.schema.has_key(["EName"])

    def test_dedup_full_row_key(self):
        d = project_columns(project_columns(emp_scan(), ["DName"]), ["DName"], dedup=True)
        assert d.schema.has_key(["DName"])


class TestTraversal:
    def test_walk_and_size(self):
        j = Join(emp_scan(), dept_scan())
        assert j.size() == 3
        assert {type(n).__name__ for n in j.walk()} == {"Join", "Scan"}

    def test_base_relations_union(self):
        j = Join(emp_scan(), dept_scan())
        assert j.base_relations() == {"Emp", "Dept"}
