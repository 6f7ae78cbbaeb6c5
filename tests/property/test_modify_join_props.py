"""Property-based tests: the join's modify rule.

A delta of modifies on one join input that keep the join columns and the
output's pairing key passes through ``propagate_join`` as pairs
``(old ⋈ r, new ⋈ r)``. Whatever the delta — pairs that keep or change the
join key or the output key, no-op pairs, chains ``a → b → c``, repeated
pairs, inserts and deletes, deltas on both sides — and whatever the join —
chain-like, star-like, keyless, with a residual predicate — the result must
be the general signed-multiset rule's: the same inserts, deletes and
modifies, and the same page I/O, on both backends and with flat and
bucketed fetches. Stored states satisfy their declared keys, as storage
guarantees.
"""

from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.algebra.compile import default_backend, set_default_backend
from repro.algebra.multiset import Multiset
from repro.algebra.operators import Join, Scan
from repro.algebra.predicates import Compare
from repro.algebra.scalar import col
from repro.algebra.schema import Schema
from repro.algebra.types import DataType
from repro.ivm.delta import Delta
from repro.ivm.propagate import _propagate_join_modifies, _propagate_join_net, propagate_join
from repro.storage.pager import IOCounter
from repro.storage.relation import StoredRelation

INT = DataType.INT


def _schema(names, key):
    return Schema.of(*((n, INT) for n in names), keys=[key] if key else [])


# name -> (left (name, columns, key), right (name, columns, key), residual)
SHAPES = {
    # R_i(K{i-1}, K{i}, V{i}) with key K{i}, joined on K1: output key K2.
    "chain": (("L", ("K0", "K1", "V1"), ["K1"]), ("R", ("K1", "K2", "V2"), ["K2"]), False),
    # Fact ⋈ Dim on the dimension's key: output key OId (fact side).
    "star": (("F", ("OId", "Item", "Qty"), ["OId"]), ("D", ("Item", "Price"), ["Item"]), False),
    "star_dim_left": (
        ("D", ("Item", "Price"), ["Item"]), ("F", ("OId", "Item", "Qty"), ["OId"]), False,
    ),
    # A bag on the left: no key survives the join.
    "keyless": (("L", ("K0", "K1", "V1"), None), ("R", ("K1", "K2", "V2"), ["K2"]), False),
    "residual": (("L", ("K0", "K1", "V1"), ["K1"]), ("R", ("K1", "K2", "V2"), ["K2"]), True),
}

VALUE = st.integers(0, 4)


def _rows(draw, columns, key):
    """Stored rows satisfying ``key`` (a bag repeats some rows)."""
    rows = draw(st.lists(st.tuples(*(VALUE for _ in columns)), max_size=7))
    if key:
        positions = [columns.index(c) for c in key]
        return list({tuple(r[i] for i in positions): r for r in rows}.values())
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    return rows


def _delta(draw, columns, key, rows):
    """Modifies of stored rows — each column kept or redrawn, so the join
    key and the key move or stay — plus no-ops, chains, repeated pairs and
    sometimes inserts and deletes."""
    modifies = []
    if rows:
        olds = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=4, unique=True))
        if draw(st.booleans()):  # clean: every pair changes only its last value
            return Delta.modification((old, old[:-1] + (old[-1] + 10,)) for old in olds)
        for old in olds:
            keep = draw(st.sampled_from(["values", "values", "any", "noop"]))
            if keep == "noop":
                new = old
            else:
                new = tuple(
                    value
                    if (keep == "values" and c in (*(key or ()), "K1", "Item"))
                    or draw(st.booleans())
                    else draw(VALUE)
                    for c, value in zip(columns, old)
                )
            modifies.append((old, new))
        extra = draw(st.sets(st.sampled_from(["chain", "repeat", "swap", "ins", "del"])))
        if "chain" in extra:  # a -> b -> c, b keeping a's keys
            a = draw(st.sampled_from(rows))
            b = a[:-1] + (a[-1] + 10,)
            modifies += [(a, b), (b, b[:-1] + (b[-1] + 10,))]
        if "repeat" in extra and modifies:
            modifies.append(modifies[0])
        if "swap" in extra and len(rows) > 1:
            a, b = rows[0], rows[1]
            modifies += [(a, b), (b, a)]
        inserts = Multiset(draw(st.lists(st.tuples(*(VALUE for _ in columns)), max_size=2)))
        deletes = Multiset(draw(st.lists(st.sampled_from(rows), max_size=2, unique=True)))
        if "ins" not in extra:
            inserts = Multiset()
        if "del" not in extra:
            deletes = Multiset()
        return Delta(inserts=inserts, deletes=deletes, modifies=modifies)
    return Delta()


@st.composite
def scenario(draw):
    shape = draw(st.sampled_from(sorted(SHAPES)))
    (lname, lcols, lkey), (rname, rcols, rkey), residual = SHAPES[shape]
    left_rows = _rows(draw, lcols, lkey)
    right_rows = _rows(draw, rcols, rkey)
    sides = draw(st.sampled_from(["left", "left", "right", "right", "both"]))
    left_delta = _delta(draw, lcols, lkey, left_rows) if sides != "right" else None
    right_delta = _delta(draw, rcols, rkey, right_rows) if sides != "left" else None
    bucketed = draw(st.booleans())
    return shape, left_rows, right_rows, left_delta, right_delta, bucketed


def _world(shape, left_rows, right_rows):
    """The join over two stored relations sharing one I/O counter, each
    indexed on the join columns."""
    (lname, lcols, lkey), (rname, rcols, rkey), residual = SHAPES[shape]
    counter = IOCounter()
    relations = []
    sides = ((lname, lcols, lkey, left_rows), (rname, rcols, rkey, right_rows))
    for name, columns, key, rows in sides:
        rel = StoredRelation(name, _schema(columns, key), counter)
        rel.load(rows)
        relations.append(rel)
    left, right = (Scan(rel.name, rel.schema) for rel in relations)
    expr = Join(left, right)
    if residual:
        expr = Join(left, right, Compare("<", col("V1"), col("V2")))
    jc = expr.join_columns
    for rel in relations:
        rel.create_index(jc)
    return expr, relations[0], relations[1], counter


def _propagate(rule, expr, left, right, left_delta, right_delta, bucketed):
    jc = expr.join_columns
    index = right.index_on(jc)
    return rule(
        expr,
        left_delta,
        right_delta,
        lambda keys: left.lookup_many(jc, keys),
        lambda keys: right.lookup_many(jc, keys),
        index.probe_buckets if bucketed else None,
        index.shape,
        index.rows,
    )


def _canon(delta: Delta):
    return delta.inserts, delta.deletes, Counter(delta.modifies)


@contextmanager
def _backend(name):
    before = default_backend()
    set_default_backend(name)
    try:
        yield
    finally:
        set_default_backend(before)


@pytest.mark.parametrize("backend", ["compiled", "interpreted"])
@settings(max_examples=300, deadline=None)
@given(case=scenario())
def test_modify_rule_matches_general_rule(backend, case):
    with _backend(backend):
        _check_against_general_rule(*case)


def _check_against_general_rule(shape, left_rows, right_rows, left_delta, right_delta, bucketed):
    expr, left, right, counter = _world(shape, left_rows, right_rows)
    args = (expr, left, right, left_delta, right_delta, bucketed)
    with counter.suspended():
        fired = _propagate(_propagate_join_modifies, *args) is not None
    event(f"{shape}: {'pairs' if fired else 'general'}")

    before = counter.snapshot()
    out = _propagate(propagate_join, *args)
    io = counter.snapshot() - before
    before = counter.snapshot()
    expected = _propagate(_propagate_join_net, *args)
    assert _canon(out) == _canon(expected)
    assert io == counter.snapshot() - before


def _fires(shape, left_rows, right_rows, left_delta=None, right_delta=None, bucketed=False):
    expr, left, right, _ = _world(shape, left_rows, right_rows)
    args = (expr, left, right, left_delta, right_delta, bucketed)
    return _propagate(_propagate_join_modifies, *args) is not None


CHAIN_L = [(0, 1, 5), (0, 2, 6)]
CHAIN_R = [(1, 10, 7), (1, 11, 8), (2, 12, 9)]


class TestWhenTheRuleApplies:
    """The rule's preconditions, case by case (the property checks that
    either answer is the general rule's)."""

    @pytest.mark.parametrize("bucketed", [False, True])
    def test_chain_left_value_modifies_pass_as_pairs(self, bucketed):
        delta = Delta.modification([((0, 1, 5), (0, 1, 50))])
        assert _fires("chain", CHAIN_L, CHAIN_R, left_delta=delta, bucketed=bucketed)

    def test_chain_right_delta_keeping_its_key_passes_as_pairs(self):
        delta = Delta.modification([((1, 10, 7), (1, 10, 70)), ((1, 11, 8), (1, 11, 80))])
        assert _fires("chain", CHAIN_L, CHAIN_R, right_delta=delta)

    def test_star_keyed_bucket_fetch_passes_as_pairs(self):
        facts, dims = [(1, 0, 3), (2, 0, 4)], [(0, 100)]
        delta = Delta.modification([((1, 0, 3), (1, 0, 30))])
        assert _fires("star", facts, dims, left_delta=delta, bucketed=True)

    @pytest.mark.parametrize(
        "pairs",
        [
            [((0, 1, 5), (0, 2, 5))],  # changes the join key
            [((0, 1, 5), (0, 1, 5))],  # a no-op
            [((0, 1, 5), (0, 1, 6)), ((0, 1, 6), (0, 1, 7))],  # a chain
        ],
    )
    def test_falls_back_on_pairs_it_cannot_pass(self, pairs):
        assert not _fires("chain", CHAIN_L, CHAIN_R, left_delta=Delta.modification(pairs))

    def test_falls_back_when_a_pair_changes_a_key_of_its_own_side(self):
        delta = Delta.modification([((1, 10, 7), (1, 13, 7))])  # K2 moves
        assert not _fires("chain", CHAIN_L, CHAIN_R, right_delta=delta)

    @pytest.mark.parametrize("shape", ["keyless", "residual"])
    def test_falls_back_on_keyless_or_residual_joins(self, shape):
        delta = Delta.modification([((0, 1, 5), (0, 1, 50))])
        assert not _fires(shape, CHAIN_L, CHAIN_R, left_delta=delta)

    def test_falls_back_on_inserts_or_both_sides(self):
        pair = ((0, 1, 5), (0, 1, 50))
        mixed = Delta(inserts=Multiset([(3, 3, 3)]), modifies=[pair])
        assert not _fires("chain", CHAIN_L, CHAIN_R, left_delta=mixed)
        both = Delta.modification([((1, 10, 7), (1, 10, 70))])
        assert not _fires(
            "chain", CHAIN_L, CHAIN_R, left_delta=Delta.modification([pair]), right_delta=both
        )
