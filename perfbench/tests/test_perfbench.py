"""Self-tests of the benchmark: names, tiny runs and runner equivalence.

Run from the root of a checkout: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest

from perfbench.harness import END_TO_END, PER_LAYER, end_to_end, measure, per_layer
from perfbench.tracing import SpanRecorder, traced_runner
from perfbench.workloads import WORKLOADS, Seeds
from repro.analysis.digests import energy_digest, result_digest
from repro.engine import SimulationJob, SpecKind, run_job
from repro.workloads import get_workload

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [entry["name"] for entry in spec["workloads"]]
    end_to_end_units = {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}
    per_layer_units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
    for name in [*workloads, *end_to_end_units, *per_layer_units]:
        assert NAME.fullmatch(name), name
    assert workloads == list(WORKLOADS)
    assert end_to_end_units == END_TO_END
    assert per_layer_units == PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_reports_every_metric(name):
    tiny = dataclasses.replace(WORKLOADS[name], window=300, warmup=400)
    outcome = measure(tiny, Seeds.from_arg(1), 0.001, trace=True)
    assert outcome.problems == []
    assert outcome.attempted > 0
    assert outcome.failed == 0
    assert [repeat.traced for repeat in outcome.repeats] == [False, True]
    assert set(end_to_end(outcome, import_s=0.0)) == set(END_TO_END)
    assert set(per_layer(outcome)) == set(PER_LAYER)


@pytest.mark.parametrize(
    "job",
    [
        SimulationJob(get_workload("gcc"), SpecKind.BEST_SYNCHRONOUS, window=600, warmup=500),
        SimulationJob(
            get_workload("em3d"),
            SpecKind.BASE_ADAPTIVE,
            use_b_partitions=True,
            window=600,
            warmup=500,
            phase_adaptive=True,
        ),
        SimulationJob(get_workload("gcc"), window=600, warmup=500, jitter_fraction=0.05),
    ],
    ids=["synchronous", "phase-adaptive", "jittered"],
)
def test_traced_runner_is_bit_identical_to_run_job(job):
    recorder = SpanRecorder()
    traced = traced_runner(recorder, [])(job)
    reference = run_job(job)
    assert traced == reference
    assert result_digest(traced) == result_digest(reference)
    assert energy_digest(traced) == energy_digest(reference)
    names = {span.name for span in recorder.spans}
    stages = {"warmup", "main_loop", "result_build"}
    assert names >= {"job", "fingerprint", "resolve", "construct", "simulate", "energy"} | stages
    assert ("controllers" in names) == job.phase_adaptive
    assert {span.ident for span in recorder.spans} == {job.fingerprint()}
