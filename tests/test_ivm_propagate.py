"""Unit tests for per-operator delta propagation.

Each operator's propagation is checked against the oracle:
``eval(op, old + Δin) == eval(op, old) + Δout``.
"""

import pytest

from repro.algebra.evaluate import evaluate
from repro.algebra.multiset import Multiset
from repro.algebra.operators import (
    AggSpec,
    Difference,
    GroupAggregate,
    Join,
    Project,
    Select,
    Union,
    project_columns,
)
from repro.algebra.predicates import Compare
from repro.algebra.scalar import Col, col, lit
from repro.ivm.delta import Delta
from repro.ivm.propagate import (
    PropagationError,
    propagate_aggregate_full_groups,
    propagate_aggregate_recompute,
    propagate_difference,
    propagate_join,
    propagate_project,
    propagate_select,
    propagate_union,
    repair_modifications,
)
from repro.workload.paperdb import dept_scan, emp_scan

EMP_OLD = Multiset(
    [("a", "toys", 50), ("b", "toys", 60), ("c", "books", 40), ("d", "toys", 30)]
)
DEPT_OLD = Multiset([("toys", "m1", 100), ("books", "m2", 90)])


def fetch_from(ms: Multiset, schema, columns):
    """Build a fetch callback over a static multiset."""
    positions = [schema.index_of(c) for c in sorted(columns)]

    def fetch(keys):
        out = Multiset()
        for row, count in ms.items():
            if tuple(row[i] for i in positions) in keys:
                out.add(row, count)
        return out

    return fetch


def check(expr, old_inputs, deltas, out_delta):
    """Oracle check: new output == old output + propagated delta."""
    new_inputs = {}
    for name, old in old_inputs.items():
        updated = old.copy()
        delta = deltas.get(name)
        if delta is not None:
            updated.update(delta.net())
        new_inputs[name] = updated
    expected = evaluate(expr, new_inputs)
    actual = evaluate(expr, old_inputs) + out_delta.net()
    assert actual == expected


class TestSelect:
    EXPR = Select(emp_scan(), Compare(">", col("Salary"), lit(45)))

    def test_insert_filtered(self):
        delta = Delta.insertion([("x", "toys", 70), ("y", "toys", 10)])
        out = propagate_select(self.EXPR, delta)
        assert out.inserts.count(("x", "toys", 70)) == 1
        assert ("y", "toys", 10) not in out.inserts
        check(self.EXPR, {"Emp": EMP_OLD}, {"Emp": delta}, out)

    def test_modify_crossing_predicate(self):
        # old fails, new passes -> insert; old passes, new fails -> delete.
        delta = Delta.modification(
            [(("d", "toys", 30), ("d", "toys", 99)), (("b", "toys", 60), ("b", "toys", 5))]
        )
        out = propagate_select(self.EXPR, delta)
        assert out.inserts.count(("d", "toys", 99)) == 1
        assert out.deletes.count(("b", "toys", 60)) == 1
        check(self.EXPR, {"Emp": EMP_OLD}, {"Emp": delta}, out)

    def test_modify_staying_inside(self):
        delta = Delta.modification([(("a", "toys", 50), ("a", "toys", 55))])
        out = propagate_select(self.EXPR, delta)
        assert out.modifies == [(("a", "toys", 50), ("a", "toys", 55))]

    def test_modify_staying_outside_dropped(self):
        delta = Delta.modification([(("d", "toys", 30), ("d", "toys", 31))])
        assert propagate_select(self.EXPR, delta).is_empty


class TestProject:
    EXPR = project_columns(emp_scan(), ["EName", "Salary"])

    def test_maps_rows(self):
        delta = Delta.insertion([("x", "toys", 70)])
        out = propagate_project(self.EXPR, delta)
        assert out.inserts.count(("x", 70)) == 1
        check(self.EXPR, {"Emp": EMP_OLD}, {"Emp": delta}, out)

    def test_modify_collapsing_to_identity_dropped(self):
        delta = Delta.modification([(("a", "toys", 50), ("a", "games", 50))])
        out = propagate_project(self.EXPR, delta)
        assert out.is_empty

    @staticmethod
    def _old_by_dname():
        """The old Emp rows behind a set of projected (DName,) rows."""
        return fetch_from(EMP_OLD, emp_scan().schema, ["DName"])

    def test_dedup_requires_old_input(self):
        expr = project_columns(emp_scan(), ["DName"], dedup=True)
        with pytest.raises(PropagationError):
            propagate_project(expr, Delta.insertion([("x", "toys", 1)]))

    def test_dedup_transitions(self):
        expr = project_columns(emp_scan(), ["DName"], dedup=True)
        delta = Delta(
            inserts=Multiset([("x", "games", 1)]),
            deletes=Multiset([("c", "books", 40)]),
        )
        out = propagate_project(expr, delta, self._old_by_dname())
        assert out.inserts.count(("games",)) == 1
        assert out.deletes.count(("books",)) == 1
        check(expr, {"Emp": EMP_OLD}, {"Emp": delta}, out)

    def test_dedup_no_transition_no_delta(self):
        expr = project_columns(emp_scan(), ["DName"], dedup=True)
        delta = Delta.deletion([("a", "toys", 50)])  # toys still has b, d
        out = propagate_project(expr, delta, self._old_by_dname())
        assert out.is_empty


class TestJoin:
    EXPR = Join(emp_scan(), dept_scan())

    def _fetches(self):
        return (
            fetch_from(EMP_OLD, emp_scan().schema, ["DName"]),
            fetch_from(DEPT_OLD, dept_scan().schema, ["DName"]),
        )

    def test_left_delta(self):
        delta = Delta.insertion([("x", "books", 15)])
        fl, fr = self._fetches()
        out = propagate_join(self.EXPR, delta, None, fl, fr)
        assert out.net().total() == 1
        check(self.EXPR, {"Emp": EMP_OLD, "Dept": DEPT_OLD}, {"Emp": delta}, out)

    def test_right_delta_fans_out(self):
        delta = Delta.modification([(("toys", "m1", 100), ("toys", "m1", 150))])
        fl, fr = self._fetches()
        out = propagate_join(self.EXPR, None, delta, fl, fr)
        # three toys employees -> three modified join rows, re-paired.
        assert len(out.modifies) == 3
        check(self.EXPR, {"Emp": EMP_OLD, "Dept": DEPT_OLD}, {"Dept": delta}, out)

    def test_both_sides(self):
        left = Delta.insertion([("x", "toys", 10)])
        right = Delta.insertion([("games", "m3", 50)])
        fl, fr = self._fetches()
        out = propagate_join(self.EXPR, left, right, fl, fr)
        check(
            self.EXPR,
            {"Emp": EMP_OLD, "Dept": DEPT_OLD},
            {"Emp": left, "Dept": right},
            out,
        )

    def test_both_sides_matching_insert(self):
        """ΔL ⋈ ΔR must be counted exactly once."""
        left = Delta.insertion([("x", "games", 10)])
        right = Delta.insertion([("games", "m3", 50)])
        fl, fr = self._fetches()
        out = propagate_join(self.EXPR, left, right, fl, fr)
        assert out.net().total() == 1
        check(
            self.EXPR,
            {"Emp": EMP_OLD, "Dept": DEPT_OLD},
            {"Emp": left, "Dept": right},
            out,
        )

    def test_missing_fetch_raises(self):
        with pytest.raises(PropagationError):
            propagate_join(self.EXPR, Delta.insertion([("x", "toys", 1)]), None, None, None)

    def test_no_match_no_delta(self):
        delta = Delta.insertion([("x", "ghost", 1)])
        fl, fr = self._fetches()
        out = propagate_join(self.EXPR, delta, None, fl, fr)
        assert out.is_empty


class TestAggregate:
    EXPR = GroupAggregate(emp_scan(), ("DName",), (AggSpec("sum", col("Salary"), "S"),))

    def _fetch(self):
        return fetch_from(EMP_OLD, emp_scan().schema, ["DName"])

    def test_recompute_modify(self):
        delta = Delta.modification([(("a", "toys", 50), ("a", "toys", 55))])
        out = propagate_aggregate_recompute(self.EXPR, delta, self._fetch())
        assert out.modifies == [(("toys", 140), ("toys", 145))]
        check(self.EXPR, {"Emp": EMP_OLD}, {"Emp": delta}, out)

    def test_recompute_new_group(self):
        delta = Delta.insertion([("x", "games", 10)])
        out = propagate_aggregate_recompute(self.EXPR, delta, self._fetch())
        assert out.inserts.count(("games", 10)) == 1
        check(self.EXPR, {"Emp": EMP_OLD}, {"Emp": delta}, out)

    def test_recompute_group_emptied(self):
        delta = Delta.deletion([("c", "books", 40)])
        out = propagate_aggregate_recompute(self.EXPR, delta, self._fetch())
        assert out.deletes.count(("books", 40)) == 1
        check(self.EXPR, {"Emp": EMP_OLD}, {"Emp": delta}, out)

    def test_recompute_group_moves(self):
        """An employee changing departments touches both groups."""
        delta = Delta.modification([(("c", "books", 40), ("c", "toys", 40))])
        out = propagate_aggregate_recompute(self.EXPR, delta, self._fetch())
        check(self.EXPR, {"Emp": EMP_OLD}, {"Emp": delta}, out)

    def test_min_max_recompute_on_delete(self):
        expr = GroupAggregate(emp_scan(), ("DName",), (AggSpec("max", col("Salary"), "M"),))
        delta = Delta.deletion([("b", "toys", 60)])
        out = propagate_aggregate_recompute(expr, delta, self._fetch())
        assert out.modifies == [(("toys", 60), ("toys", 50))]

    def test_full_groups_mode(self):
        """When the delta covers whole groups, no fetch is needed: every
        toys tuple is in the delta (budget-style whole-group modify)."""
        delta = Delta.modification(
            [
                (("a", "toys", 50), ("a", "toys", 51)),
                (("b", "toys", 60), ("b", "toys", 61)),
                (("d", "toys", 30), ("d", "toys", 31)),
            ]
        )
        out = propagate_aggregate_full_groups(self.EXPR, delta)
        assert out.modifies == [(("toys", 140), ("toys", 143))]
        check(self.EXPR, {"Emp": EMP_OLD}, {"Emp": delta}, out)

    def test_full_groups_new_group(self):
        delta = Delta.insertion([("x", "games", 5), ("y", "games", 6)])
        out = propagate_aggregate_full_groups(self.EXPR, delta)
        assert out.inserts.count(("games", 11)) == 1

    def test_empty_delta(self):
        assert propagate_aggregate_recompute(self.EXPR, Delta(), self._fetch()).is_empty


class TestUnionDifference:
    def test_union_adds(self):
        left = Delta.insertion([(1,)])
        right = Delta.deletion([(2,)])
        out = propagate_union(left, right)
        assert out.inserts.count((1,)) == 1
        assert out.deletes.count((2,)) == 1

    def test_union_none_side(self):
        out = propagate_union(None, Delta.insertion([(1,)]))
        assert out.inserts.count((1,)) == 1

    def test_difference_nonlinear(self):
        expr = Difference(
            project_columns(emp_scan(), ["DName"]),
            project_columns(dept_scan(), ["DName"]),
        )
        old_left = Multiset([("toys",), ("toys",), ("books",)])
        old_right = Multiset([("toys",)])
        # Deleting one right 'toys' raises the monus result by one.
        right = Delta.deletion([("toys",)])
        out = propagate_difference(expr, None, right, old_left, old_right)
        assert out.net().count(("toys",)) == 1

    def test_difference_clamped(self):
        expr = Difference(
            project_columns(emp_scan(), ["DName"]),
            project_columns(dept_scan(), ["DName"]),
        )
        old_left = Multiset([("toys",)])
        old_right = Multiset([("toys",), ("toys",)])
        right = Delta.insertion([("toys",)])
        out = propagate_difference(expr, None, right, old_left, old_right)
        assert out.is_empty  # already clamped at zero


class TestDedup:
    """DISTINCT as an identity projection with ``dedup=True`` over π_DName(Emp)."""

    EXPR = project_columns(project_columns(emp_scan(), ["DName"]), ["DName"], dedup=True)

    def test_transitions_only(self):
        old = Multiset([("toys",), ("toys",), ("books",)])
        delta = Delta(deletes=Multiset([("books",)]), inserts=Multiset([("games",)]))
        out = propagate_project(self.EXPR, delta, lambda touched: old)
        assert out.deletes.count(("books",)) == 1
        assert out.inserts.count(("games",)) == 1

    def test_negative_count_detected(self):
        with pytest.raises(PropagationError):
            propagate_project(
                self.EXPR, Delta.deletion([("toys",)]), lambda touched: Multiset()
            )


class TestRepairModifications:
    def test_pairs_on_schema_key(self):
        expr = GroupAggregate(emp_scan(), ("DName",), (AggSpec("sum", col("Salary"), "S"),))
        delta = Delta(
            inserts=Multiset([("toys", 145)]),
            deletes=Multiset([("toys", 140)]),
        )
        out = repair_modifications(expr.schema, delta)
        assert out.modifies == [(("toys", 140), ("toys", 145))]

    def test_no_keys_no_change(self):
        schema = project_columns(emp_scan(), ["DName"]).schema
        delta = Delta(inserts=Multiset([("toys",)]), deletes=Multiset([("books",)]))
        out = repair_modifications(schema, delta)
        assert out.inserts and out.deletes and not out.modifies
