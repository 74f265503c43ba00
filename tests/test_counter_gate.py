"""Tests for the work-counter gates in the CI workflow.

The fig6-quick, scenarios-calibrated and jitter-sensitivity steps each gate
inline Python in ``.github/workflows/ci.yml``; these tests run it as CI
does, over a synthetic last line of ``perfbench/run.py`` output, so a gate
that could never fail (or always fails) shows up in tier-1.
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


def _gate_source(log: str) -> str:
    """The heredoc the step that writes *log* feeds to ``python3 -``."""
    lines = (ROOT / ".github" / "workflows" / "ci.yml").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if f"{log}\" <<'PY'" in line)
    end = next(i for i in range(start + 1, len(lines)) if lines[i].strip() == "PY")
    return textwrap.dedent("\n".join(lines[start + 1 : end]))


def _bounds(gate: str) -> dict[str, int]:
    return {name: int(bound) for name, bound in re.findall(r'"([\w.]+)": (\d+),', gate)}


GATE = _gate_source("perfbench-fig6.log")
BOUNDS = _bounds(GATE)
SCENARIOS_GATE = _gate_source("perfbench-scenarios.log")
SCENARIOS_BOUNDS = _bounds(SCENARIOS_GATE)
JITTER_GATE = _gate_source("perfbench-jitter.log")
JITTER_BOUNDS = _bounds(JITTER_GATE)


def _run_gate(
    tmp_path: Path, values: dict[str, int], gate: str = GATE
) -> subprocess.CompletedProcess:
    metrics = {name: {"value": value, "unit": "count"} for name, value in values.items()}
    metrics["sim_kips"] = {"value": 36.1, "unit": "kinst/ref-s"}
    log = tmp_path / "perfbench-fig6.log"
    log.write_text("progress line\n" + json.dumps({"correct": True, "metrics": metrics}) + "\n")
    return subprocess.run(
        [sys.executable, "-", str(log)], input=gate, capture_output=True, text=True
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


def test_scenarios_gate_bounds_the_long_trace_work_counters():
    assert set(SCENARIOS_BOUNDS) == {
        "core.main_loop_edges",
        "core.warmup_insts",
        "workloads.trace_insts",
    }


def test_scenarios_gate_passes_at_its_bounds(tmp_path):
    gate = _run_gate(tmp_path, SCENARIOS_BOUNDS, SCENARIOS_GATE)
    assert gate.returncode == 0, gate.stderr
    for name, bound in SCENARIOS_BOUNDS.items():
        assert f"{name} = {bound} (bound {bound})" in gate.stdout


@pytest.mark.parametrize("counter", sorted(SCENARIOS_BOUNDS))
def test_scenarios_gate_fails_one_over_a_bound(tmp_path, counter):
    values = {**SCENARIOS_BOUNDS, counter: SCENARIOS_BOUNDS[counter] + 1}
    gate = _run_gate(tmp_path, values, SCENARIOS_GATE)
    assert gate.returncode == 1
    assert f"work counters over their bounds: [{counter!r}]" in gate.stderr


def test_jitter_gate_bounds_the_jittered_work_counters():
    assert set(JITTER_BOUNDS) == {
        "core.main_loop_edges",
        "core.warmup_insts",
        "workloads.trace_insts",
    }


def test_jitter_gate_passes_at_its_bounds(tmp_path):
    gate = _run_gate(tmp_path, JITTER_BOUNDS, JITTER_GATE)
    assert gate.returncode == 0, gate.stderr
    for name, bound in JITTER_BOUNDS.items():
        assert f"{name} = {bound} (bound {bound})" in gate.stdout


@pytest.mark.parametrize("counter", sorted(JITTER_BOUNDS))
def test_jitter_gate_fails_one_over_a_bound(tmp_path, counter):
    values = {**JITTER_BOUNDS, counter: JITTER_BOUNDS[counter] + 1}
    gate = _run_gate(tmp_path, values, JITTER_GATE)
    assert gate.returncode == 1
    assert f"work counters over their bounds: [{counter!r}]" in gate.stderr
