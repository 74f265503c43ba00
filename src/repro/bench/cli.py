"""``python -m repro.bench`` — run benchmark suites and guard regressions.

Examples::

    python -m repro.bench                       # all suites, full size
    python -m repro.bench --quick               # CI-sized parameterisation
    python -m repro.bench --suite sweep --quick # one suite
    python -m repro.bench --quick --check       # fail (exit 1) on regression
    python -m repro.bench --quick --update-baseline
    python -m repro.bench --suite sweep --quick --profile   # cProfile a suite
    python -m repro.bench history                 # recorded trajectory tables
    python -m repro.bench history --markdown      # ...for EXPERIMENTS.md

Every invocation appends one entry per suite to ``BENCH_<suite>.json`` at
the repository root (disable with ``--no-record``).  ``--check`` compares the
fresh entries against the committed baseline (``benchmarks/baseline.json``):
raw seconds when the environment fingerprint matches the baseline's, the
calibration-normalised metric otherwise.  ``history`` renders the committed
BENCH files as per-experiment trajectory tables (normalised seconds, deltas
against the previous like-for-like entry, regression flags) instead of
running anything.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path
from typing import Sequence

from repro.bench.baseline import (
    DEFAULT_TOLERANCE,
    compare_entries,
    load_baseline,
    save_baseline,
)
from repro.bench.recording import append_entry, bench_file_for_suite, default_output_dir
from repro.bench.schema import BenchEntry
from repro.bench.suites import SUITES, run_suite
from repro.obs.logging import add_logging_arguments, configure_logging


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.bench`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the repository's benchmark suites and check for regressions.",
    )
    add_logging_arguments(parser)
    parser.add_argument(
        "command",
        nargs="?",
        choices=("run", "history"),
        default="run",
        help="'run' (default) times the suites; 'history' renders the "
        "recorded BENCH_*.json trajectory tables without running anything",
    )
    parser.add_argument(
        "--markdown",
        action="store_true",
        help="with 'history', emit Markdown tables (for EXPERIMENTS.md)",
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="with 'history', keep only the newest N rows per experiment",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="with 'history', machine-readable output",
    )
    parser.add_argument(
        "--suite",
        action="append",
        choices=sorted(SUITES) + ["all"],
        help="suite to run (repeatable; default: all)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized parameterisation (small windows, few workloads)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed baseline and exit 1 on regression",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=f"allowed slow-down before failing (default {DEFAULT_TOLERANCE:.2f} = "
        f"{DEFAULT_TOLERANCE:.0%})",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline file (default: <repo>/benchmarks/baseline.json)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the fresh entries into the baseline file",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="also time the parallel executor with this many workers (sweep suite)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run each suite under cProfile and write a pstats dump plus a "
        "top-25 cumulative table next to the bench JSON; implies --no-record "
        "(profiler overhead would pollute the timing history)",
    )
    parser.add_argument(
        "--no-record",
        action="store_true",
        help="do not append entries to the BENCH_*.json history files",
    )
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=None,
        help="directory for BENCH_*.json files (default: repository root)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="with --check, fail when a suite cannot be compared (missing or "
        "mismatched baseline) instead of skipping it",
    )
    return parser


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    return build_parser().parse_args(argv)


def _write_profile(
    profiler: cProfile.Profile, suite: str, output_dir: Path
) -> tuple[Path, Path]:
    """Write the raw pstats dump and a top-25 cumulative table for *suite*.

    Artifacts land next to the bench JSON: ``BENCH_<suite>.pstats`` (load
    with :mod:`pstats` for interactive digging) and
    ``BENCH_<suite>_profile.txt`` (the human-readable starting point for the
    next performance PR).
    """
    dump_path = output_dir / f"BENCH_{suite}.pstats"
    table_path = output_dir / f"BENCH_{suite}_profile.txt"
    profiler.dump_stats(dump_path)
    with table_path.open("w", encoding="utf-8") as handle:
        stats = pstats.Stats(str(dump_path), stream=handle)
        stats.sort_stats("cumulative").print_stats(25)
    return dump_path, table_path


def _resolve_suites(selected: list[str] | None) -> list[str]:
    if not selected or "all" in selected:
        return sorted(SUITES)
    ordered: list[str] = []
    for name in selected:
        if name not in ordered:
            ordered.append(name)
    return ordered


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _parse_args(argv)
    configure_logging(args)
    if args.tolerance < 0:
        print("error: --tolerance must be non-negative", file=sys.stderr)
        return 2
    suites = _resolve_suites(args.suite)
    output_dir = args.output_dir if args.output_dir is not None else default_output_dir()

    if args.command == "history":
        # Imported lazily: the analysis layer is pure file reading and the
        # run path never needs it.
        import json

        from repro.bench.history import load_trajectories, render_history
        from repro.obs.records import RecordFileError

        try:
            trajectories = load_trajectories(
                output_dir, tolerance=args.tolerance, limit=args.limit
            )
        except (RecordFileError, FileNotFoundError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        if args.as_json:
            payload = {
                experiment: [row.to_dict() for row in rows]
                for experiment, rows in sorted(trajectories.items())
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(render_history(trajectories, markdown=args.markdown), end="")
        return 0

    baseline_path = (
        args.baseline if args.baseline is not None else output_dir / "benchmarks" / "baseline.json"
    )

    record = not args.no_record and not args.profile
    entries: dict[str, BenchEntry] = {}
    for name in suites:
        print(f"[bench] running suite {name!r} ({'quick' if args.quick else 'full'})...")
        if args.profile:
            profiler = cProfile.Profile()
            profiler.enable()
        entry = run_suite(name, quick=args.quick, workers=args.workers)
        if args.profile:
            profiler.disable()
            dump_path, table_path = _write_profile(profiler, name, output_dir)
            print(f"[bench]   profile -> {dump_path} and {table_path}")
        entries[name] = entry
        for run in entry.runs:
            print(
                f"[bench]   {run.name}: {run.seconds:.2f}s "
                f"({run.simulations} simulations, {run.cache_hits} cache hits, "
                f"{run.normalized:.1f} calibration units)"
            )
        if record:
            path = bench_file_for_suite(name, output_dir)
            append_entry(path, entry)
            print(f"[bench]   recorded -> {path}")

    failures = 0
    if args.check or args.update_baseline:
        baseline = load_baseline(baseline_path) if baseline_path.exists() else {}
        if args.check:
            for name, entry in entries.items():
                reference = baseline.get(name)
                if reference is None:
                    print(f"[bench] {name}: no committed baseline at {baseline_path}; skipping")
                    if args.strict:
                        failures += 1
                    continue
                try:
                    regressions = compare_entries(
                        entry, reference, tolerance=args.tolerance
                    )
                except ValueError as error:
                    print(f"[bench] {name}: cannot compare against baseline: {error}")
                    if args.strict:
                        failures += 1
                    continue
                metric = (
                    "seconds"
                    if entry.environment.is_comparable_to(reference.environment)
                    else "normalized (environment differs from baseline)"
                )
                if regressions:
                    failures += len(regressions)
                    for regression in regressions:
                        print(f"[bench] REGRESSION {regression.describe()}")
                else:
                    print(f"[bench] {name}: within tolerance (metric: {metric})")
        if args.update_baseline:
            baseline.update(entries)
            save_baseline(baseline_path, baseline)
            print(f"[bench] baseline updated -> {baseline_path}")

    if failures:
        print(f"[bench] FAILED: {failures} regression(s) beyond tolerance", file=sys.stderr)
        return 1
    return 0
