"""Property: the γ delta rules agree with from-scratch evaluation.

For random SUM/COUNT/AVG(+COUNT) aggregates under inserts, deletes,
group-moving modifies, emptied groups and new groups — and MIN/MAX under
deltas that only grow — :func:`propagate_aggregate_self` fed the old view
rows and :func:`propagate_aggregate_recompute` fed the old input rows must
both give the delta between interpreted evaluations of the old and the new
state.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.evaluate import evaluate
from repro.algebra.multiset import Multiset
from repro.algebra.operators import AggSpec, GroupAggregate, Scan
from repro.algebra.scalar import col
from repro.algebra.schema import Schema
from repro.algebra.types import DataType
from repro.ivm.delta import Delta
from repro.ivm.propagate import (
    can_self_maintain_delta,
    propagate_aggregate_recompute,
    propagate_aggregate_self,
)

R_SCHEMA = Schema.of(
    ("K", DataType.INT),
    ("G", DataType.STRING),
    ("H", DataType.INT),
    ("X", DataType.INT),
    ("Y", DataType.INT),
)
AGGREGATES = {
    "count": AggSpec("count", None, "n"),
    "sum_x": AggSpec("sum", col("X"), "sx"),
    "sum_y": AggSpec("sum", col("Y"), "sy"),
    "avg": AggSpec("avg", col("X"), "ax"),
    "min": AggSpec("min", col("X"), "lo"),
    "max": AggSpec("max", col("X"), "hi"),
}
OLD_GROUPS = ["a", "b", "c"]
NEW_GROUPS = ["a", "b", "c", "d", "e"]  # "d"/"e" start new groups


@st.composite
def cases(draw):
    names = draw(st.sets(st.sampled_from(sorted(AGGREGATES)), min_size=1))
    if "avg" in names:
        names.add("count")  # AVG is self-maintainable only beside a COUNT
    group_by = draw(st.sampled_from([("G",), ("G", "H")]))
    expr = GroupAggregate(
        Scan("R", R_SCHEMA), group_by, tuple(AGGREGATES[n] for n in sorted(names))
    )
    values = st.integers(-5, 20)
    old_rows = [
        (k, draw(st.sampled_from(OLD_GROUPS)), draw(st.integers(0, 2)), draw(values), draw(values))
        for k in range(draw(st.integers(0, 10)))
    ]
    # MIN/MAX absorb only growth; SUM without a COUNT cannot see a group
    # empty; with a COUNT (and no MIN/MAX) anything goes.
    extremes = bool(names & {"min", "max"})
    shrinks = "count" in names and not extremes
    deleted = set()
    if shrinks and old_rows:
        deleted = draw(st.sets(st.sampled_from(range(len(old_rows)))))
    modifies = []
    for k in draw(st.sets(st.sampled_from(range(len(old_rows))))) if old_rows else ():
        if k in deleted:
            continue
        _, g, h, x, y = old = old_rows[k]
        if shrinks and draw(st.booleans()):
            new = (k, draw(st.sampled_from(NEW_GROUPS)), h, x, y)  # may move groups
        elif extremes:
            new = (k, g, h, x, draw(values))
        else:
            new = (k, g, h, draw(values), draw(values))
        modifies.append((old, new))
    inserts = [
        (100 + i, draw(st.sampled_from(NEW_GROUPS)), draw(st.integers(0, 2)), draw(values),
         draw(values))
        for i in range(draw(st.integers(0, 6)))
    ]
    delta = Delta(
        inserts=Multiset(inserts),
        deletes=Multiset(old_rows[k] for k in deleted),
        modifies=modifies,
    )
    return expr, Multiset(old_rows), delta


def scratch_delta(expr: GroupAggregate, old: Multiset, delta: Delta) -> Delta:
    """The view delta by evaluating the old and the new state from scratch."""
    new = old.copy()
    new.update(delta.net())
    n = len(expr.group_by)
    before = {r[:n]: r for r in evaluate(expr, {"R": old}, backend="interpreted").rows()}
    after = {r[:n]: r for r in evaluate(expr, {"R": new}, backend="interpreted").rows()}
    out = Delta()
    for key in before.keys() | after.keys():
        old_row, new_row = before.get(key), after.get(key)
        if old_row is None:
            out.inserts.add(new_row)
        elif new_row is None:
            out.deletes.add(old_row)
        elif old_row != new_row:
            out.modifies.append((old_row, new_row))
    return out


def canonical(delta: Delta) -> tuple[Counter, Counter, Counter]:
    """A delta as multisets, AVG values rounded: a running average rebuilt
    from ``avg × count`` may differ from a fresh one in the last bit, and
    such a change is no change."""

    def c(row):
        return tuple(round(v, 9) if isinstance(v, float) else v for v in row)

    inserts = Counter({c(r): n for r, n in delta.inserts.items()})
    deletes = Counter({c(r): n for r, n in delta.deletes.items()})
    modifies = Counter((c(o), c(n)) for o, n in delta.modifies if c(o) != c(n))
    return inserts, deletes, modifies


@settings(max_examples=300, deadline=None)
@given(cases())
def test_self_and_recompute_rules_match_scratch(case):
    expr, old, delta = case
    assert can_self_maintain_delta(expr, delta)
    old_view = evaluate(expr, {"R": old}, backend="interpreted")
    positions = [R_SCHEMA.index_of(g) for g in expr.group_by]

    def fetch_input(keys):
        out = Multiset()
        for row, count in old.items():
            if tuple(row[p] for p in positions) in keys:
                out.add(row, count)
        return out

    expected = canonical(scratch_delta(expr, old, delta))
    # The whole old view: rows of unaffected groups must be ignored.
    assert canonical(propagate_aggregate_self(expr, delta, lambda keys: old_view)) == expected
    assert canonical(propagate_aggregate_recompute(expr, delta, fetch_input)) == expected
