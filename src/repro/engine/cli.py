"""``python -m repro.engine`` — inspect a persistent result-cache store.

Examples::

    python -m repro.engine inspect store/
    python -m repro.engine inspect store/ --json

``inspect`` summarises a store and probes every committed entry through a
real :class:`ResultCache` — the store's committed entries are never
altered, though stale temp files (orphaned ``.tmp-*`` older than an hour)
are reaped as on any cache open.  See ``docs/OPERATIONS.md`` for the store
layout, the version rules and the resume workflow.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.engine.cache import CacheVersionError, ResultCache
from repro.engine.job import FINGERPRINT_VERSION
from repro.obs.logging import run_cli

__all__ = ["build_parser", "inspect_store", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.engine`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine",
        description="Inspect persistent result-cache stores.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    inspect_parser = subparsers.add_parser(
        "inspect", help="summarise and validate a result-cache store"
    )
    inspect_parser.add_argument("directory", help="cache directory to inspect")
    inspect_parser.add_argument("--json", action="store_true", dest="as_json")
    return parser


def inspect_store(directory: Path) -> dict:
    """Machine-readable store health summary (the ``inspect --json`` payload).

    Public so operators' scripts and ``python -m repro.obs report --store``
    can consume store health without screen-scraping the text table.
    """
    entries = 0
    versions: dict[str, int] = {}
    temp_files = 0
    for path in sorted(directory.glob("*.json")):
        entries += 1
        try:
            data = json.loads(path.read_text())
            version = data.get("version") if isinstance(data, dict) else None
            key = str(version) if version is not None else "unversioned"
        except ValueError:
            key = "invalid"
        versions[key] = versions.get(key, 0) + 1
    temp_files += sum(1 for _ in directory.glob(".tmp-*"))

    # Probe every committed entry through a real ResultCache: a valid entry
    # answers `get` with a disk hit, a corrupt one with a miss, and a
    # cross-version one with CacheVersionError — the same classification the
    # engine would apply at run time, now surfaced as hit/miss counters.
    cache = ResultCache(directory)
    version_mismatches = 0
    for fingerprint in cache.disk_fingerprints():
        try:
            cache.get(fingerprint)
        except CacheVersionError:
            version_mismatches += 1
    return {
        "directory": str(directory),
        "entries": entries,
        "versions": versions,
        "orphaned_temp_files": temp_files,
        "expected_version": FINGERPRINT_VERSION,
        "servable_entries": cache.stats.disk_hits,
        "unreadable_entries": cache.stats.misses,
        "version_mismatches": version_mismatches,
        "cache_stats_line": cache.stats.describe(),
        "cache_stats": {
            "hits": cache.stats.hits,
            "memory_hits": cache.stats.memory_hits,
            "disk_hits": cache.stats.disk_hits,
            "misses": cache.stats.misses,
            "stores": cache.stats.stores,
        },
    }


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)

    # inspect is the only subcommand.
    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return 2
    summary = inspect_store(directory)
    if args.as_json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(f"store     : {summary['directory']}")
    print(f"entries   : {summary['entries']}")
    for version in sorted(summary["versions"]):
        marker = (
            ""
            if version == str(summary["expected_version"])
            else "  (incompatible with this build)"
        )
        print(f"  version {version}: {summary['versions'][version]}{marker}")
    print(f"temp files: {summary['orphaned_temp_files']}")
    print(f"this build: FINGERPRINT_VERSION {summary['expected_version']}")
    print(
        f"validation: {summary['servable_entries']} servable, "
        f"{summary['unreadable_entries']} unreadable, "
        f"{summary['version_mismatches']} version mismatch(es)"
    )
    print(summary["cache_stats_line"])
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(run_cli(main))
