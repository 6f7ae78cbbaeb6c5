"""Edge-case tests for the estimator: set operators, dedup, scaling,
insert/delete delta propagation, and Project/Union/Difference deltas."""

import pytest

from repro.algebra.operators import (
    AggSpec,
    Difference,
    GroupAggregate,
    Join,
    Project,
    Union,
    project_columns,
)
from repro.algebra.scalar import Arith, Col, col, lit
from repro.cost.estimates import DagEstimator, DeltaStats
from repro.dag.builder import build_dag
from repro.storage.statistics import Catalog, TableStats
from repro.workload.paperdb import dept_scan, emp_scan
from repro.workload.transactions import TransactionType, UpdateSpec, modify_txn


def _est(view, catalog=None):
    dag = build_dag(view)
    return dag, DagEstimator(dag.memo, catalog or Catalog.paper_catalog())


class TestInfoEdges:
    def test_union_rows_add(self):
        view = Union(
            project_columns(emp_scan(), ["DName"]),
            project_columns(dept_scan(), ["DName"]),
        )
        dag, est = _est(view)
        assert est.info(dag.root).rows == 11000.0

    def test_difference_left_rows(self):
        view = Difference(
            project_columns(dept_scan(), ["DName"]),
            project_columns(emp_scan(), ["DName"]),
        )
        dag, est = _est(view)
        assert est.info(dag.root).rows == 1000.0

    def test_dedup_projection_distinct_rows(self):
        view = project_columns(emp_scan(), ["DName"], dedup=True)
        dag, est = _est(view)
        assert est.info(dag.root).rows == 1000.0

    def test_computed_column_distinct_defaults_to_rows(self):
        view = Project(
            emp_scan(),
            (("EName", Col("EName")), ("D", Arith("*", col("Salary"), lit(2)))),
        )
        dag, est = _est(view)
        info = est.info(dag.root)
        assert info.stats.distinct["D"] == 10000.0

    def test_cartesian_join_rows(self):
        from repro.algebra.operators import Scan
        from repro.algebra.schema import Schema
        from repro.algebra.types import DataType

        other = Scan("X", Schema.of(("Z", DataType.INT)))
        view = Join(emp_scan(), other, allow_cartesian=True)
        catalog = Catalog.paper_catalog()
        catalog.set("X", TableStats(5, {"Z": 5}))
        dag, est = _est(view, catalog)
        assert est.info(dag.root).rows == 50000.0


class TestDeltaEdges:
    def test_insert_delta_at_union(self):
        view = Union(
            project_columns(emp_scan(), ["DName"]),
            project_columns(dept_scan(), ["DName"]),
        )
        dag, est = _est(view)
        txn = TransactionType(
            "both",
            {"Emp": UpdateSpec(inserts=2), "Dept": UpdateSpec(deletes=1)},
        )
        delta = est.delta(dag.root, txn)
        assert delta.inserts == 2 and delta.deletes == 1

    def test_difference_delta_conservative(self):
        view = Difference(
            project_columns(dept_scan(), ["DName"]),
            project_columns(emp_scan(), ["DName"]),
        )
        dag, est = _est(view)
        txn = modify_txn(">Emp", "Emp", {"Salary"})
        delta = est.delta(dag.root, txn)
        assert delta is not None
        assert not delta.complete_on  # non-linear operator: no guarantees

    def test_join_key_changing_modify_becomes_ins_del(self):
        """Modifying the join column turns modifies into delete+insert."""
        view = Join(emp_scan(), dept_scan())
        dag, est = _est(view)
        txn = modify_txn(">EmpDept", "Emp", {"DName"})
        delta = est.delta(dag.root, txn)
        assert delta.modifies == 0
        assert delta.inserts == pytest.approx(1.0)
        assert delta.deletes == pytest.approx(1.0)

    def test_pure_insert_into_empty_aggregate_inserts_groups(self):
        view = GroupAggregate(
            emp_scan(), ("DName",), (AggSpec("sum", col("Salary"), "S"),)
        )
        catalog = Catalog(
            {"Emp": TableStats(0.0, {"EName": 0.0, "DName": 0.0, "Salary": 0.0})}
        )
        dag, est = _est(view, catalog)
        txn = TransactionType("ins", {"Emp": UpdateSpec(inserts=3)})
        delta = est.delta(dag.root, txn)
        assert delta.inserts > 0 and delta.modifies == 0

    def test_delete_everything_deletes_groups(self):
        view = GroupAggregate(
            emp_scan(), ("DName",), (AggSpec("sum", col("Salary"), "S"),)
        )
        catalog = Catalog(
            {"Emp": TableStats(3.0, {"EName": 3.0, "DName": 1.0, "Salary": 3.0})}
        )
        dag, est = _est(view, catalog)
        txn = TransactionType("del", {"Emp": UpdateSpec(deletes=3)})
        delta = est.delta(dag.root, txn)
        assert delta.deletes > 0 and delta.modifies == 0

    def test_scale_caps_distinct(self):
        delta = DeltaStats(modifies=10.0, distinct={"a": 10.0})
        half = delta.scale(0.5)
        assert half.modifies == 5.0
        assert half.distinct["a"] == 5.0

    def test_distinct_of_empty(self):
        assert DeltaStats(modifies=2.0).distinct_of([]) == 1.0

    def test_dedup_projection_delta_loses_completeness(self):
        view = project_columns(emp_scan(), ["DName"], dedup=True)
        dag, est = _est(view)
        txn = modify_txn(">Emp", "Emp", {"Salary"})
        delta = est.delta(dag.root, txn)
        assert delta is not None
        assert not delta.complete_on
