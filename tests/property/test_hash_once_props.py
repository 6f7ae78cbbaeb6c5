"""Property-based tests: keeping an algebra value's hash is invisible.

Operators, predicates, scalars, aggregate specs, schemas and columns keep
their structural hash after computing it once. For random expression
trees, the kept hash must equal a hash computed afresh from the fields;
equal trees built independently must share one plan-cache entry; and a
deep copy — a copied :class:`Database`'s schemas included — must still
hit that entry.
"""

import copy
import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.compile import PlanCache
from repro.algebra.operators import (
    AggSpec,
    GroupAggregate,
    Join,
    Project,
    Scan,
    Select,
    Union,
)
from repro.algebra.predicates import And, Compare, Not, Or, TruePred, conjunction
from repro.algebra.scalar import Arith, Col, Const
from repro.storage.database import Database
from repro.workload.paperdb import DEPT_SCHEMA, EMP_SCHEMA


def _scalar(rng, ints, depth=0):
    kind = rng.randrange(3 if depth < 2 else 2)
    if kind == 0:
        return Col(rng.choice(ints))
    if kind == 1:
        return Const(rng.randint(-5, 50))
    return Arith(rng.choice("+-*"), _scalar(rng, ints, depth + 1), _scalar(rng, ints, depth + 1))


def _predicate(rng, ints, depth=0):
    kind = rng.randrange(5 if depth < 2 else 2)
    if kind == 0:
        return TruePred()
    if kind == 1:
        op = rng.choice(("=", "<", ">=", "!="))
        return Compare(op, _scalar(rng, ints), _scalar(rng, ints))
    if kind == 2:
        return Not(_predicate(rng, ints, depth + 1))
    if kind == 3:
        return Or(_predicate(rng, ints, depth + 1), _predicate(rng, ints, depth + 1))
    return conjunction(_predicate(rng, ints, depth + 1) for _ in range(2))


def _int_columns(expr):
    return [c.name for c in expr.schema.columns if c.dtype.is_numeric]


def _tree(seed):
    """A random operator tree over Emp and Dept; the same seed builds an
    equal tree out of fresh objects."""
    rng = random.Random(seed)

    def build(depth):
        roll = rng.randrange(7 if depth < 3 else 1)
        if roll == 0:
            return rng.choice((Scan("Emp", EMP_SCHEMA), Scan("Dept", DEPT_SCHEMA)))
        child = build(depth + 1)
        ints = _int_columns(child)
        if roll == 1 and ints:
            return Select(child, _predicate(rng, ints))
        if roll == 2 and ints:
            outputs = (("k", Col(child.schema.names[0])), ("v", _scalar(rng, ints)))
            return Project(child, outputs, dedup=rng.random() < 0.5)
        if roll == 3 and "DName" in child.schema.names:
            other = Scan("Dept", DEPT_SCHEMA) if "Budget" not in child.schema.names else (
                Scan("Emp", EMP_SCHEMA)
            )
            if set(other.schema.names) & set(child.schema.names) == {"DName"}:
                return Join(child, other)
        if roll == 4 and ints and len(child.schema.names) > 1:
            group = child.schema.names[0]
            aggs = (AggSpec("sum", _scalar(rng, ints), "s"), AggSpec("count", None, "n"))
            return GroupAggregate(child, (group,), aggs)
        if roll == 5:
            return Project(child, tuple((n, Col(n)) for n in child.schema.names), dedup=True)
        if roll == 6:
            return Union(child, child)
        return child

    return build(0)


class _Hashed:
    """Stands for a value whose hash is already known."""

    def __init__(self, value: int) -> None:
        self.value = value

    def __hash__(self) -> int:
        return self.value


def _fresh_hash(value):
    """The dataclass structural hash, recomputed through every field with
    nothing kept: tuple hashes of the compared fields, all the way down."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return hash(
            tuple(
                _Hashed(_fresh_hash(getattr(value, f.name)))
                for f in dataclasses.fields(value)
                if f.compare
            )
        )
    if isinstance(value, tuple):
        return hash(tuple(_Hashed(_fresh_hash(v)) for v in value))
    if isinstance(value, frozenset):
        return hash(frozenset(_Hashed(_fresh_hash(v)) for v in value))
    return hash(value)


def _nodes(expr):
    """Every hashed value in the tree: operators, predicates, scalars,
    aggregate specs, schemas and columns."""
    seen = []
    stack = [expr]
    while stack:
        value = stack.pop()
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            seen.append(value)
            stack.extend(getattr(value, f.name) for f in dataclasses.fields(value))
        elif isinstance(value, (tuple, frozenset)):
            stack.extend(value)
    return seen


class TestHashOnce:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_kept_hash_is_the_structural_hash(self, seed):
        tree = _tree(seed)
        first = hash(tree)
        for node in _nodes(tree):
            assert hash(node) == _fresh_hash(node)
        assert hash(tree) == first == _fresh_hash(tree)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_equal_trees_share_one_plan_cache_entry(self, seed):
        cache = PlanCache()
        built = []
        left, right = _tree(seed), _tree(seed)
        assert left is not right and left == right
        cache.get(("plan", left), lambda: built.append(left) or "plan")
        assert cache.get(("plan", right), lambda: built.append(right) or "other") == "plan"
        copied = copy.deepcopy(left)
        assert cache.get(("plan", copied), lambda: built.append(copied) or "other") == "plan"
        assert built == [left] and cache.hits == 2

    def test_copied_database_hits_the_entry(self):
        def positive(db):
            schema = db.relation("Emp").schema
            return Select(Scan("Emp", schema), Compare(">", Col("Salary"), Const(0)))

        db = Database()
        db.create_relation("Emp", EMP_SCHEMA, [("e", "d", 1)])
        cache = PlanCache()
        cache.get(("plan", positive(db)), lambda: "plan")  # the schema keeps its hash
        clone = copy.deepcopy(db)
        assert clone.relation("Emp").schema is not db.relation("Emp").schema
        assert cache.get(("plan", positive(clone)), lambda: "other") == "plan"

    def test_and_or_and_schema_keep_equality(self):
        a = And((Compare("<", Col("x"), Const(1)), Compare(">", Col("y"), Const(2))))
        b = And((Compare("<", Col("x"), Const(1)), Compare(">", Col("y"), Const(2))))
        hash(a)
        assert a == b and hash(a) == hash(b)
        assert a != And((Compare("<", Col("x"), Const(1)),))
        assert EMP_SCHEMA.names is EMP_SCHEMA.names
