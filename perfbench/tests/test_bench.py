"""Benchmark self-tests: the traced run is deterministic and transparent.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ENV = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
ENV["PYTHONPATH"] = str(ROOT / "src")
SEED = 7


def _eval(scenario: Path, fmt: str, spans: Path | None = None) -> bytes:
    cli_args = ["eval", str(scenario), "--format", fmt]
    if spans is None:
        argv = [sys.executable, "-m", "fuzzysns.cli", *cli_args]
    else:
        argv = [sys.executable, str(BENCH / "tracer.py"), str(spans), *cli_args]
    done = subprocess.run(argv, capture_output=True, env=ENV, cwd=ROOT, timeout=300, check=True)
    assert done.stderr == b""
    return done.stdout


def _write(tmp_path: Path, name: str) -> workloads.Workload:
    workload = workloads.generate(name, SEED)
    (tmp_path / "scenario.json").write_text(workload.text())
    return workload


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_traced_counts_repeat_and_output_is_unchanged(tmp_path, name):
    workload = _write(tmp_path, name)
    scenario = tmp_path / "scenario.json"
    plain = _eval(scenario, workload.fmt)
    runs = []
    for k in range(2):
        spans = tmp_path / f"spans{k}.json"
        traced = _eval(scenario, workload.fmt, spans)
        assert traced == plain
        runs.append(tracer.layer_metrics(str(spans))[0])
    first, second = runs
    assert first == second
    names = [m for m in first if m.endswith((".calls", ".pairs", ".out_support"))]
    assert len(names) >= 20 and "scenario.state_entries" in first
    assert first["scenario.state_entries"] == len(workload.doc["steps"]) * len(
        workload.doc["entities"]
    )


def test_replay_rejects_a_changed_grade(tmp_path):
    workload = _write(tmp_path, "dfn-fusion")
    text = _eval(tmp_path / "scenario.json", workload.fmt).decode()
    check.check_output(workload.doc, workload.fmt, text)
    changed = text.replace("|0.5,", "|0.4,", 1)
    assert changed != text
    with pytest.raises(check.Mismatch):
        check.check_output(workload.doc, workload.fmt, changed)
