"""Smoke test of the end-to-end benchmark (outside the tier-1 ``testpaths``).

Run as ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``. One
``run.py --smoke`` (every workload at 1/20 scale, untraced then traced) is
shared by the checks below.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _serve_processes() -> list[str]:
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode()
            except OSError:
                continue
            if str(HERE / "serve.py") in cmdline:
                found.append(cmdline)
    return found


@pytest.fixture(scope="module")
def smoke_run():
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "3", "--smoke"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    elapsed = time.perf_counter() - started
    document = json.loads((HERE / "out" / "result.json").read_text())
    return done, elapsed, document


def test_spec_is_within_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in SPEC["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


def test_smoke_command_succeeds_quickly(smoke_run):
    done, elapsed, document = smoke_run
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert document["ok"] and document["claim"] is None
    assert all(gate["ok"] for gate in document["gates"]) and document["gates"]
    assert elapsed < 30, f"--smoke took {elapsed:.1f} s"
    assert {"cores", "python", "numpy", "git_sha"} <= set(document["fingerprint"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("section", ["end_to_end", "per_layer"])
def test_every_named_metric_is_emitted_with_its_unit(smoke_run, workload, section):
    outcome = smoke_run[2]["workloads"][workload][section]
    assert outcome["correct"] and outcome["failed"] == 0 and outcome["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in outcome["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in outcome["metrics"].values())
    if section == "end_to_end":
        assert all(v["value"] > 0 for v in outcome["metrics"].values())


def test_nothing_is_left_behind(smoke_run):
    assert not list((HERE / "out").glob("tmp-*"))
    assert not _serve_processes()
    for workload in SPEC["workloads"]:
        trace = json.loads((HERE / "out" / f"trace-{workload['name']}.json").read_text())
        assert trace["spans"] and {"id", "parent", "name", "start_ns", "end_ns", "op"} <= set(
            trace["spans"][0]
        )


def test_a_failing_pass_cleans_up_and_exits_non_zero(tmp_path):
    """Only ``BENCHMARK.json`` and the benchmark's files: the program is
    absent, so the command must fail without printing a result."""
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        SPEC["command"] + ["--workload", "e1_point_mem", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert not _serve_processes()
