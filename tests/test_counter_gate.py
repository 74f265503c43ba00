"""Tests for the fig6-quick work-counter gate in the CI workflow.

The gate is inline Python in ``.github/workflows/ci.yml``; these tests run
it as CI does, over a synthetic last line of ``perfbench/run.py`` output,
so a gate that could never fail (or always fails) shows up in tier-1.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _gate_source() -> str:
    """The heredoc the fig6-quick step feeds to ``python3 -``."""
    lines = (ROOT / ".github" / "workflows" / "ci.yml").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if "perfbench-fig6.log\" <<'PY'" in line)
    end = next(i for i in range(start + 1, len(lines)) if lines[i].strip() == "PY")
    return textwrap.dedent("\n".join(lines[start + 1 : end]))


GATE = _gate_source()
BOUNDS = {name: int(bound) for name, bound in re.findall(r'"([\w.]+)": (\d+),', GATE)}


def _run_gate(tmp_path: Path, values: dict[str, int]) -> subprocess.CompletedProcess:
    metrics = {name: {"value": value, "unit": "count"} for name, value in values.items()}
    metrics["sim_kips"] = {"value": 36.1, "unit": "kinst/ref-s"}
    log = tmp_path / "perfbench-fig6.log"
    log.write_text("progress line\n" + json.dumps({"correct": True, "metrics": metrics}) + "\n")
    return subprocess.run(
        [sys.executable, "-", str(log)], input=GATE, capture_output=True, text=True
    )


def test_gate_bounds_the_declared_work_counters():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    counts = {metric["name"] for metric in declared if metric["unit"] == "count"}
    assert set(BOUNDS) == {
        "core.main_loop_edges",
        "core.warmup_insts",
        "workloads.trace_insts",
        "engine.fingerprints",
    }
    assert set(BOUNDS) <= counts


def test_gate_passes_at_its_bounds(tmp_path):
    gate = _run_gate(tmp_path, BOUNDS)
    assert gate.returncode == 0, gate.stderr
    for name, bound in BOUNDS.items():
        assert f"{name} = {bound} (bound {bound})" in gate.stdout


@pytest.mark.parametrize("counter", sorted(BOUNDS))
def test_gate_fails_one_over_a_bound(tmp_path, counter):
    gate = _run_gate(tmp_path, {**BOUNDS, counter: BOUNDS[counter] + 1})
    assert gate.returncode == 1
    assert f"work counters over their bounds: [{counter!r}]" in gate.stderr
