"""No ``zip(*…)`` in the layers a batch commit runs through.

``zip(*pairs)`` unpacks its argument into one iterator per element: on a
3,000-pair modify delta that is 3,000 short-lived objects, enough young
collections to move the batch workloads' commit tail (it was found costing
write-back validation, and again in the join modify rule). The idiom there
is ``map(itemgetter(i), pairs)``, as ``Schema.validate_rows`` uses. This
test reads the code of ``repro.algebra``, ``repro.ivm`` and
``repro.storage`` token by token, so comments and strings may name the
pattern.
"""

import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
PACKAGES = ("algebra", "ivm", "storage")
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def zip_star_lines(source: str) -> list[int]:
    """The lines on which code calls ``zip`` with a starred first argument."""
    tokens = [
        tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type not in SKIP
    ]
    return [
        name.start[0]
        for name, paren, star in zip(tokens, tokens[1:], tokens[2:])
        if (name.type, name.string, paren.string, star.string) == (tokenize.NAME, "zip", "(", "*")
    ]


def test_the_scanner_sees_code_and_not_comments():
    source = "a = zip( *rows)\n# zip(*rows)\ns = 'zip(*rows)'\nb = zip(*\n    rows)\nc = zip(x, *y)\n"
    assert zip_star_lines(source) == [1, 4]


def test_no_zip_star_in_the_commit_path():
    found = [
        f"{path.relative_to(SRC)}:{line}"
        for package in PACKAGES
        for path in sorted((SRC / package).rglob("*.py"))
        for line in zip_star_lines(path.read_text())
    ]
    assert found == [], f"zip(*…) builds an iterator per element: {found}"
