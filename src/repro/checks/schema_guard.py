"""Fingerprint-schema guard: no schema change without a version bump.

``FINGERPRINT_VERSION`` is the protocol number of every persistent result
store: the cache refuses entries recorded under another version, and a
forgotten bump silently poisons a store with results computed under a
different schema.  The repo has bumped it four times by hand (2→3→4→5), each
time because a reviewer remembered; this rule remembers instead.

The committed snapshot (``src/repro/checks/snapshots/fingerprint_schema.json``)
records, keyed by the version that produced it, everything fingerprint- or
store-relevant that is introspectable: :class:`SimulationJob`'s field set and
payload key structure, :class:`RunResult`'s field set,
``PROCESS_DEPENDENT_FIELDS`` and the timing-digest field partition.  The rule
fails when the live schema differs from the snapshot under the *same*
version (change without bump) or when the version moved without the snapshot
(bump without ``--update-snapshots``).  ``--update-snapshots`` itself refuses
to record a schema change that was not accompanied by a bump, so the
invariant cannot be clicked away.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Iterator

from repro.checks.findings import Finding
from repro.checks.registry import Rule, register
from repro.checks.source import repo_root

__all__ = [
    "SCHEMA_GUARD",
    "SNAPSHOT_PATH",
    "SnapshotError",
    "current_schema",
    "load_snapshot",
    "update_snapshot",
]

SCHEMA_GUARD = "schema-guard"

SNAPSHOT_PATH = Path(__file__).resolve().parent / "snapshots" / "fingerprint_schema.json"

#: Schema sections and what a drift in each one means.
_SECTIONS = {
    "simulation_job_fields": "SimulationJob dataclass fields (all fingerprinted)",
    "payload_keys": "top-level fingerprint payload keys",
    "run_keys": "fingerprint payload 'run' sub-keys",
    "run_result_fields": "RunResult dataclass fields (cached result schema)",
    "process_dependent_fields": "RunResult.PROCESS_DEPENDENT_FIELDS",
    "timing_digest_fields": "TIMING_DIGEST_FIELDS (golden timing digest set)",
}


class SnapshotError(RuntimeError):
    """``--update-snapshots`` refused: the change needs a version bump first."""


def current_schema() -> dict[str, Any]:
    """Introspect the live fingerprint/store schema.

    Imports the simulator packages lazily (this module must be importable
    without them) and builds one real fingerprint payload so the guarded key
    structure is exactly what :meth:`SimulationJob.payload` emits, not a
    parallel description that could drift.
    """
    from dataclasses import fields

    from repro.analysis.digests import TIMING_DIGEST_FIELDS
    from repro.analysis.metrics import RunResult
    from repro.engine.job import FINGERPRINT_VERSION, SimulationJob
    from repro.workloads import get_workload

    job = SimulationJob(profile=get_workload("gcc"), window=1_000, warmup=500)
    payload = job.payload()
    return {
        "fingerprint_version": FINGERPRINT_VERSION,
        "simulation_job_fields": sorted(spec.name for spec in fields(SimulationJob)),
        "payload_keys": sorted(payload),
        "run_keys": sorted(payload["run"]),
        "run_result_fields": sorted(spec.name for spec in fields(RunResult)),
        "process_dependent_fields": sorted(RunResult.PROCESS_DEPENDENT_FIELDS),
        "timing_digest_fields": sorted(TIMING_DIGEST_FIELDS),
    }


def load_snapshot(path: Path | None = None) -> dict[str, Any] | None:
    """The committed snapshot, or ``None`` when it has never been recorded."""
    path = path if path is not None else SNAPSHOT_PATH
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def _version_anchor() -> tuple[str, int]:
    """Repo-relative path and line of the ``FINGERPRINT_VERSION`` definition."""
    job_path = repo_root() / "src" / "repro" / "engine" / "job.py"
    try:
        for lineno, line in enumerate(job_path.read_text(encoding="utf-8").splitlines(), 1):
            if re.match(r"FINGERPRINT_VERSION\s*=", line):
                return "src/repro/engine/job.py", lineno
    except OSError:
        pass
    return "src/repro/engine/job.py", 0


def _diff_sections(
    snapshot: dict[str, Any], current: dict[str, Any]
) -> list[tuple[str, list[str], list[str]]]:
    """Per-section (name, added, removed) for every drifted section."""
    drifted = []
    for section in _SECTIONS:
        recorded = set(snapshot.get(section, []))
        live = set(current.get(section, []))
        if recorded != live:
            drifted.append(
                (section, sorted(live - recorded), sorted(recorded - live))
            )
    return drifted


def _describe_drift(drift: list[tuple[str, list[str], list[str]]]) -> str:
    parts = []
    for section, added, removed in drift:
        changes = []
        if added:
            changes.append(f"added {', '.join(added)}")
        if removed:
            changes.append(f"removed {', '.join(removed)}")
        parts.append(f"{section}: {'; '.join(changes)}")
    return " | ".join(parts)


def check_schema(
    current: dict[str, Any] | None = None,
    snapshot: dict[str, Any] | None = None,
    *,
    snapshot_path: Path | None = None,
) -> Iterator[Finding]:
    """Compare the live schema against the committed snapshot.

    *current* and *snapshot* are injectable for the test fixtures; the
    defaults introspect the package and read the committed file.
    """
    current = current if current is not None else current_schema()
    if snapshot is None:
        snapshot = load_snapshot(snapshot_path)
    path, line = _version_anchor()

    if snapshot is None:
        yield Finding(
            rule=SCHEMA_GUARD,
            path=path,
            line=line,
            message=(
                "no committed fingerprint-schema snapshot; record one with "
                "`python -m repro.checks --update-snapshots`"
            ),
        )
        return

    drift = _diff_sections(snapshot, current)
    recorded_version = snapshot.get("fingerprint_version")
    live_version = current["fingerprint_version"]

    if live_version == recorded_version and drift:
        yield Finding(
            rule=SCHEMA_GUARD,
            path=path,
            line=line,
            message=(
                "fingerprint/store schema changed without a FINGERPRINT_VERSION "
                f"bump (still {live_version}): {_describe_drift(drift)} — bump "
                "the version, then run `python -m repro.checks --update-snapshots`"
            ),
        )
    elif live_version != recorded_version:
        yield Finding(
            rule=SCHEMA_GUARD,
            path=path,
            line=line,
            message=(
                f"FINGERPRINT_VERSION is {live_version} but the committed schema "
                f"snapshot records {recorded_version}; regenerate it with "
                "`python -m repro.checks --update-snapshots` and commit the result"
            ),
        )


def update_snapshot(
    current: dict[str, Any] | None = None,
    snapshot_path: Path | None = None,
) -> str:
    """Rewrite the snapshot for the live schema.

    Refuses (``SnapshotError``) when the schema drifted under an unchanged
    version — the bump must come first, otherwise updating the snapshot
    would *be* the silent poisoning this rule exists to stop.
    """
    current = current if current is not None else current_schema()
    path = snapshot_path if snapshot_path is not None else SNAPSHOT_PATH
    snapshot = load_snapshot(path)
    if snapshot is not None:
        drift = _diff_sections(snapshot, current)
        if drift and current["fingerprint_version"] == snapshot.get("fingerprint_version"):
            raise SnapshotError(
                "refusing to update the fingerprint-schema snapshot: the schema "
                f"changed ({_describe_drift(drift)}) but FINGERPRINT_VERSION is "
                f"still {current['fingerprint_version']}; bump it in "
                "src/repro/engine/job.py first"
            )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return (
        f"recorded fingerprint-schema snapshot for version "
        f"{current['fingerprint_version']} at {path}"
    )


def _check_project(root: Path) -> Iterator[Finding]:
    yield from check_schema()


register(
    Rule(
        rule_id=SCHEMA_GUARD,
        description=(
            "SimulationJob/RunResult schema must not change without a "
            "FINGERPRINT_VERSION bump (committed snapshot comparison)"
        ),
        check_project=_check_project,
        update_snapshot=update_snapshot,
    )
)
