"""Property-based tests: ``Schema.validate_rows`` is ``validate_tuple`` mapped.

``validate_rows(rows)`` checks a long list of plain tuples a column at a
time and anything else row by row. Whatever the rows — exact-typed tuples,
lists, tuple subclasses, a bool in an INT column, an int in a FLOAT column
(widened), a wrong arity, no rows at all — it must return what
``[validate_tuple(r) for r in rows]`` returns, as plain tuples, or raise the
same exception type with the same message (so from the same first bad row).
"""

import operator

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.schema import COLUMN_PASS_MIN_ROWS, Schema
from repro.algebra.types import DataType

SCHEMA = Schema.of(
    ("I", DataType.INT),
    ("F", DataType.FLOAT),
    ("S", DataType.STRING),
    ("B", DataType.BOOL),
    keys=[["I"]],
)


class Row(tuple):
    """A tuple subclass (as a named tuple would be)."""


VALID = st.tuples(
    st.integers(-5, 5),
    st.floats(-5, 5, allow_nan=False),
    st.text(max_size=2),
    st.booleans(),
)

#: Ways to spoil (or merely reshape) one row.
CHANGES = {
    "list": list,
    "subclass": Row,
    "bool_in_int": lambda r: (True, *r[1:]),
    "int_in_float": lambda r: (r[0], 2, *r[2:]),
    "str_in_float": lambda r: (r[0], "x", *r[2:]),
    "short": lambda r: r[:-1],
    "long": lambda r: (*r, 0),
}


@st.composite
def row_lists(draw):
    """Valid rows (often enough for a column pass), a few of them changed."""
    size = draw(st.sampled_from([0, 1, COLUMN_PASS_MIN_ROWS - 1, COLUMN_PASS_MIN_ROWS, 40]))
    rows = draw(st.lists(VALID, min_size=size, max_size=size))
    for _ in range(draw(st.integers(0, 3))):
        if rows:
            i = draw(st.integers(0, len(rows) - 1))
            rows[i] = CHANGES[draw(st.sampled_from(sorted(CHANGES)))](rows[i])
    return rows


def _outcome(check):
    try:
        return "ok", check()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return "raised", (type(exc), str(exc))


@settings(max_examples=400, deadline=None)
@given(rows=row_lists())
def test_validate_rows_equals_validate_tuple_per_row(rows):
    got = _outcome(lambda: SCHEMA.validate_rows(rows))
    want = _outcome(lambda: [SCHEMA.validate_tuple(r) for r in rows])
    assert got == want
    if got[0] == "ok":
        assert all(type(r) is tuple for r in got[1])
        # Widening shows in the types, which == between 1 and 1.0 hides.
        assert [tuple(map(type, r)) for r in got[1]] == [tuple(map(type, r)) for r in want[1]]
        # The input list itself comes back exactly when no row was normalized.
        assert (got[1] is rows) == all(map(operator.is_, got[1], rows))
