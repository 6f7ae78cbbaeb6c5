"""Storage is the one validator of client rows.

``Schema.validate_rows`` and ``Schema.validate_tuple`` type-check rows. A
base delta is checked by ``StoredRelation.check_delta`` once, before the
maintainer propagates anything; a second checker elsewhere would fork what
"valid" means between routes. This test reads the code under ``repro``
token by token and allows a use of either name only where it belongs: the
schema that defines them, storage, and the SQL front end, which types a
statement's literals before it builds a delta. Comments and strings may
name them.
"""

import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
VALIDATORS = {"validate_rows", "validate_tuple"}
ALLOWED = {"algebra/schema.py", "storage/relation.py", "sql/dml.py"}


def validator_lines(source: str) -> list[int]:
    """The lines on which code uses a validator by name (a call or a
    reference), other than in its own ``def``."""
    tokens = [
        tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.NAME
    ]
    return [
        tok.start[0]
        for before, tok in zip([None, *tokens], tokens)
        if tok.string in VALIDATORS and (before is None or before.string != "def")
    ]


def test_the_scanner_sees_uses_and_not_definitions_or_comments():
    source = (
        "def validate_rows(self, rows):\n"
        "    return list(map(self.validate_tuple, rows))\n"
        "# schema.validate_rows(rows)\n"
        "check = schema.validate_rows\n"
        "s = 'validate_tuple(row)'\n"
    )
    assert validator_lines(source) == [2, 4]


def test_rows_are_validated_only_by_the_schema_storage_and_sql_literals():
    found = [
        f"{path.relative_to(SRC).as_posix()}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).as_posix() not in ALLOWED
        for line in validator_lines(path.read_text())
    ]
    assert found == [], f"a second validator of client rows: {found}"


def test_the_maintainer_validates_nothing():
    assert validator_lines((SRC / "ivm" / "maintainer.py").read_text()) == []
