"""The environment switches under ``src/`` are exactly the documented ones.

``docs/architecture.md`` ("Environment switches") lists every ``REPRO_*``
name and the module that reads it; a switch added to the source without a
row there — or a row whose switch is gone — fails here, so the number of
configurations the suite must cover only changes on purpose.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
ROW = re.compile(r"^\| `(REPRO_[A-Z_]+)` \| `([\w/.]+)` \|", re.MULTILINE)


def test_environment_switches_match_the_documented_table():
    documented = dict(ROW.findall((ROOT / "docs" / "architecture.md").read_text()))
    assert documented, "docs/architecture.md lost its 'Environment switches' table"

    named: set[str] = set()
    readers: set[str] = set()
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        named.update(re.findall(r"REPRO_[A-Z_]+", text))
        if "os.environ" in text:
            readers.add(path.relative_to(SRC).as_posix())

    assert named == set(documented)
    assert readers == set(documented.values())
    for name, module in documented.items():
        assert name in (SRC / module).read_text(), f"{name} is not read in {module}"
