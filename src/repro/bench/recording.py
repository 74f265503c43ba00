"""Persistence of benchmark history: ``BENCH_<suite>.json`` files.

Each file maps experiment names to entry lists (oldest first, bounded by
:data:`BENCH_HISTORY_LIMIT`).  The sweep suite keeps using the historical
``BENCH_sweep.json`` name so the performance trajectory started by earlier
PRs continues in one place.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.bench.schema import BenchEntry
from repro.obs.records import RecordFileError

#: Recorded entries kept per experiment (oldest dropped first).
BENCH_HISTORY_LIMIT = 50

#: Suites whose history rides in another suite's file.  The sensitivity,
#: energy and scenarios suites record into the historical ``BENCH_sweep.json``
#: trajectory (each under its own experiment key), keeping all sweep-layer
#: timings in one place.
SUITE_FILE_ALIASES = {"sensitivity": "sweep", "energy": "sweep", "scenarios": "sweep"}


def default_output_dir() -> Path:
    """The directory BENCH files live in: the enclosing repository root.

    Walks upward from the current directory looking for ``pyproject.toml``;
    falls back to the current directory (so the CLI still works from an
    installed package run outside the repo).  ``REPRO_BENCH_DIR`` overrides.
    """
    override = os.environ.get("REPRO_BENCH_DIR")
    if override:
        return Path(override)
    probe = Path.cwd().resolve()
    for candidate in (probe, *probe.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return probe


def bench_file_for_suite(suite: str, output_dir: Path | None = None) -> Path:
    """Path of the history file for *suite* (alias-aware)."""
    base = output_dir if output_dir is not None else default_output_dir()
    return base / f"BENCH_{SUITE_FILE_ALIASES.get(suite, suite)}.json"


def load_history(path: Path) -> dict[str, list[dict[str, Any]]]:
    """Load a BENCH file; an absent file reads as empty.

    A file that is not a JSON object raises :class:`RecordFileError` and is
    left untouched, so a corrupt file never has its committed history
    overwritten by :func:`append_entry`.
    """
    if not path.exists():
        return {}
    try:
        data = json.loads(path.read_text())
    except ValueError as error:
        raise RecordFileError(f"{path} is not valid JSON ({error}); not a BENCH file") from error
    if not isinstance(data, dict):
        raise RecordFileError(f"{path} holds no JSON object; not a BENCH file")
    return data


def append_entry(
    path: Path,
    entry: BenchEntry | dict[str, Any],
    *,
    experiment: str | None = None,
    limit: int = BENCH_HISTORY_LIMIT,
) -> None:
    """Append *entry* under *experiment* (default: the entry's suite name)."""
    payload = entry.to_dict() if isinstance(entry, BenchEntry) else dict(entry)
    key = experiment if experiment is not None else str(payload.get("suite", "default"))
    data = load_history(path)
    history = data.setdefault(key, [])
    history.append(payload)
    del history[:-limit]
    path.write_text(json.dumps(data, indent=2) + "\n")


def latest_entry(path: Path, experiment: str) -> BenchEntry | None:
    """The newest schema-valid entry recorded under *experiment*, if any."""
    history = load_history(path).get(experiment, [])
    for payload in reversed(history):
        try:
            return BenchEntry.from_dict(payload)
        except (ValueError, KeyError, TypeError):
            continue
    return None
