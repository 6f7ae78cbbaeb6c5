"""Property-based tests: probe-driven DML row selection.

``dml_to_delta`` finds the rows of ``UPDATE``/``DELETE … WHERE`` through a
candidate-key map or a hash index whenever the WHERE clause pins one with
``column = literal`` conjuncts, and scans otherwise. Whatever it probes, the
delta must equal the one a full scan of the relation computes, and deriving
it must not charge the I/O counter.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.evaluate import evaluate
from repro.algebra.schema import Schema
from repro.algebra.types import DataType
from repro.ivm.delta import Delta
from repro.sql.dml import dml_to_delta
from repro.sql.parser import parse
from repro.sql.translate import translate_sql
from repro.storage.database import Database

KEYS = {"K": [["K"]], "K,G": [["K", "G"]], "none": []}
INDEXES = [[], [["G"]], [["V"]], [["G"], ["V"]], [["G", "V"]]]
GROUPS = ["a", "b", "c"]


def _schema(key: str) -> Schema:
    return Schema.of(
        ("K", DataType.INT), ("G", DataType.STRING), ("V", DataType.INT), keys=KEYS[key]
    )


@st.composite
def relation(draw):
    """A keyed (or bag) relation with indexes, perturbed by a few modifies so
    stored order is not load order: ``(key name, indexes, db)``."""
    key = draw(st.sampled_from(sorted(KEYS)))
    indexes = draw(st.sampled_from(INDEXES))
    raw = draw(
        st.lists(
            st.tuples(st.integers(0, 9), st.sampled_from(GROUPS), st.integers(0, 4)),
            max_size=14,
        )
    )
    rows, seen = [], set()
    for row in raw:
        ident = {"K": row[:1], "K,G": row[:2], "none": None}[key]
        if ident is not None and ident in seen:
            continue
        seen.add(ident)
        rows.append(row)
    if key == "none" and rows:  # a bag: some rows stored more than once
        rows += draw(st.lists(st.sampled_from(rows), max_size=6))
    db = Database()
    rel = db.create_relation("T", _schema(key), rows, indexes=indexes)
    for i in draw(st.lists(st.integers(0, 20), max_size=4)):
        live = sorted(rel.contents().rows())
        if live:
            old = live[i % len(live)]
            rel.apply_delta(Delta.modification([(old, (old[0], old[1], old[2] + 1))]))
    db.counter.reset()
    return key, indexes, db


def _k(draw):
    return draw(st.integers(0, 10))


def _g(draw):
    return draw(st.sampled_from(GROUPS + ["zz"]))


def _v(draw):
    return draw(st.integers(0, 6))


@st.composite
def where(draw):
    """A WHERE clause (without the keyword), or ``None``, of one of the kinds
    the probe must get right."""
    kind = draw(
        st.sampled_from(
            [
                "key", "index", "non-indexed", "key+residual", "key+group",
                "two pins", "literal first", "qualified", "float literal",
                "or", "not", "none",
            ]
        )
    )
    k, g, v = _k(draw), _g(draw), _v(draw)
    floats = [f"K = {k}.0", f"V = {v}.5", f"G = '{g}' AND V = {v}.0"]
    return {
        "key": f"K = {k}",
        "index": f"G = '{g}'",
        "non-indexed": f"V = {v}",
        "key+residual": f"K = {k} AND V > {v}",
        "key+group": f"K = {k} AND G = '{g}'",
        "two pins": f"K = {k} AND K = {_k(draw)}",
        "literal first": f"'{g}' = G AND {k} = K",
        "qualified": f"T.K = {k} AND T.G = '{g}'",
        "float literal": draw(st.sampled_from(floats)),
        "or": f"K = {k} OR G = '{g}'",
        "not": f"NOT (K = {k}) AND G = '{g}'",
        "none": None,
    }[kind]


@st.composite
def statement(draw):
    clause = draw(where())
    suffix = "" if clause is None else f" WHERE {clause}"
    if draw(st.booleans()):
        return f"DELETE FROM T{suffix}"
    assignment = draw(st.sampled_from(["V = V + 1", "G = 'q'", "V = 0", "K = K"]))
    return f"UPDATE T SET {assignment}{suffix}"


def _oracle(text: str, db: Database) -> Delta:
    """Scan every stored row and keep the ones the WHERE clause selects
    (evaluated through the SELECT translator, not through dml)."""
    rel = db.relation("T")
    _, _, tail = text.partition(" WHERE ")
    select = "SELECT K, G, V FROM T" + (f" WHERE {tail}" if tail else "")
    matched = evaluate(translate_sql(select, {"T": rel.schema}).expr, {"T": rel.contents()})
    rows = [row for row in rel.contents().expand() if row in matched]
    if text.startswith("DELETE"):
        return Delta.deletion(rows)
    assignment = text.split(" SET ", 1)[1].split(" WHERE ")[0]
    pairs = []
    for k, g, v in rows:
        new = {
            "V = V + 1": (k, g, v + 1), "G = 'q'": (k, "q", v),
            "V = 0": (k, g, 0), "K = K": (k, g, v),
        }[assignment]
        if new != (k, g, v):
            pairs.append(((k, g, v), new))
    return Delta.modification(pairs)


class TestProbeMatchesScan:
    @settings(max_examples=300, deadline=None)
    @given(relation(), statement())
    def test_delta_equals_full_scan_and_is_uncharged(self, world, text):
        _, _, db = world
        before = db.counter.snapshot()
        name, delta = dml_to_delta(parse(text), db)
        assert db.counter.snapshot() == before
        assert name == "T"
        expected = _oracle(text, db)
        assert delta.inserts == expected.inserts
        assert delta.deletes == expected.deletes
        assert delta.modifies == expected.modifies
