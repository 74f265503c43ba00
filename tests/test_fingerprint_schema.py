"""No fingerprint or result-store schema change without a FINGERPRINT_VERSION bump.

``FINGERPRINT_VERSION`` is the protocol number of every persistent result
store: the cache refuses entries recorded under another version, and a
forgotten bump silently poisons a store with results computed under a
different schema.  ``fingerprint_schema.json`` records, keyed by the version
that produced it, ``SimulationJob``'s fields, the fingerprint payload's keys
and every ``RunResult`` field with its digest class:

* ``timing`` — in ``TIMING_DIGEST_FIELDS``, hashed by ``result_digest``;
* ``excluded`` — declared ``compare=False``, hashed by neither digest;
* ``energy`` — everything else, hashed by ``energy_digest``.

A change under the recorded version fails with "bump FINGERPRINT_VERSION".
After a bump the test fails with "commit this snapshot:" and the live JSON,
which is committed by hand as ``tests/fingerprint_schema.json``.
"""

from __future__ import annotations

import json
from dataclasses import Field, fields
from pathlib import Path
from typing import Any

import pytest

from repro.analysis.digests import TIMING_DIGEST_FIELDS
from repro.analysis.metrics import RunResult
from repro.engine.job import FINGERPRINT_VERSION, SimulationJob
from repro.workloads import get_workload

SNAPSHOT = Path(__file__).with_name("fingerprint_schema.json")


def digest_class(spec: Field) -> str:
    """The digest class of one ``RunResult`` field, read off the code."""
    if spec.name in TIMING_DIGEST_FIELDS:
        return "timing"
    if not spec.compare:
        return "excluded"
    return "energy"


def live_schema() -> dict[str, Any]:
    """The schema as the code declares it, built from one real fingerprint payload."""
    payload = SimulationJob(profile=get_workload("gcc"), window=1_000, warmup=500).payload()
    return {
        "fingerprint_version": FINGERPRINT_VERSION,
        "simulation_job_fields": sorted(spec.name for spec in fields(SimulationJob)),
        "payload_keys": sorted(payload),
        "run_keys": sorted(payload["run"]),
        "run_result_fields": {spec.name: digest_class(spec) for spec in fields(RunResult)},
    }


def schema_problem(live: dict[str, Any], committed: dict[str, Any]) -> str | None:
    """Why *live* cannot stand against the *committed* snapshot, or ``None``."""
    if live["fingerprint_version"] != committed["fingerprint_version"]:
        return "commit this snapshot:\n" + json.dumps(live, indent=2, sort_keys=True)
    changes = []
    for section, value in live.items():
        if value == committed.get(section):
            continue
        # List sections read as {name: None}, so only a dict entry can move class.
        now = value if isinstance(value, dict) else dict.fromkeys(value)
        recorded = committed.get(section) or {}
        was = recorded if isinstance(recorded, dict) else dict.fromkeys(recorded)
        detail = [f"added {name}" for name in sorted(now.keys() - was.keys())]
        detail += [f"removed {name}" for name in sorted(was.keys() - now.keys())]
        detail += [
            f"{name} {was[name]} -> {now[name]}"
            for name in sorted(now.keys() & was.keys())
            if now[name] != was[name]
        ]
        changes.append(f"{section}: {', '.join(detail)}")
    if not changes:
        return None
    return (
        f"the schema changed under FINGERPRINT_VERSION {live['fingerprint_version']} "
        f"({'; '.join(changes)}): bump FINGERPRINT_VERSION in src/repro/engine/job.py"
    )


def committed_schema() -> dict[str, Any]:
    return json.loads(SNAPSHOT.read_text(encoding="utf-8"))


def test_committed_snapshot_matches_live_schema():
    problem = schema_problem(live_schema(), committed_schema())
    assert problem is None, problem


def test_live_schema_sections():
    live = live_schema()
    assert live["fingerprint_version"] >= 5
    assert "profile" in live["payload_keys"]
    assert "trace_seed" in live["run_keys"]
    assert live["run_result_fields"]["workload"] == "timing"


def test_digest_partition_is_consistent():
    excluded = {spec.name for spec in fields(RunResult) if not spec.compare}
    for spec in fields(RunResult):
        # A digest-hashed timing field must take part in result equality.
        assert not (spec.name in TIMING_DIGEST_FIELDS and spec.name in excluded), spec.name
    assert set(TIMING_DIGEST_FIELDS) <= {spec.name for spec in fields(RunResult)}


def test_run_result_field_addition_without_bump_fails():
    live = live_schema()
    live["run_result_fields"]["new_counter"] = "energy"
    problem = schema_problem(live, committed_schema())
    assert problem.endswith("bump FINGERPRINT_VERSION in src/repro/engine/job.py")
    assert "run_result_fields: added new_counter" in problem


def test_field_without_recorded_class_fails():
    committed = committed_schema()
    del committed["run_result_fields"]["fetched"]
    problem = schema_problem(live_schema(), committed)
    assert "bump FINGERPRINT_VERSION" in problem
    assert "run_result_fields: added fetched" in problem


def test_job_field_addition_without_bump_fails():
    live = live_schema()
    live["simulation_job_fields"] = sorted([*live["simulation_job_fields"], "new_knob"])
    problem = schema_problem(live, committed_schema())
    assert "bump FINGERPRINT_VERSION" in problem
    assert "simulation_job_fields: added new_knob" in problem


def test_run_result_field_removal_without_bump_fails():
    live = live_schema()
    del live["run_result_fields"]["fetched"]
    problem = schema_problem(live, committed_schema())
    assert "bump FINGERPRINT_VERSION" in problem
    assert "run_result_fields: removed fetched" in problem


@pytest.mark.parametrize(
    "name, was, now",
    [
        pytest.param("loads", "timing", "energy", id="timing-to-energy"),
        pytest.param("fetched", "energy", "excluded", id="energy-to-excluded"),
        pytest.param("horizon_skipped_edges", "excluded", "energy", id="excluded-to-energy"),
    ],
)
def test_field_reclassified_without_bump_fails(name, was, now):
    live = live_schema()
    assert live["run_result_fields"][name] == was
    live["run_result_fields"][name] = now
    problem = schema_problem(live, committed_schema())
    assert "bump FINGERPRINT_VERSION" in problem
    assert f"run_result_fields: {name} {was} -> {now}" in problem


def test_version_bump_with_stale_snapshot_fails():
    live = live_schema()
    live["fingerprint_version"] += 1
    live["run_result_fields"]["new_counter"] = "energy"
    problem = schema_problem(live, committed_schema())
    header, _, snapshot = problem.partition("\n")
    assert header == "commit this snapshot:"
    assert json.loads(snapshot) == live
