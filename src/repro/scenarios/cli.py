"""``python -m repro.scenarios`` — browse the library and run campaigns.

Examples::

    python -m repro.scenarios list                      # every scenario
    python -m repro.scenarios list --family adversarial
    python -m repro.scenarios describe adv-period-1x-interval
    python -m repro.scenarios run paper-apsi-capacity --window 6000
    python -m repro.scenarios matrix --quick --workers auto
    python -m repro.scenarios matrix --family adversarial --cache-dir .cache

``matrix --quick`` runs the 16-scenario quick subset at CI-sized windows;
with ``--cache-dir`` a second invocation is served entirely from the result
cache (the summary line reports ``0 simulations``).  ``--json`` switches any
subcommand's output to machine-readable JSON.

A campaign is one process (``--workers N`` adds a process pool) writing
one on-disk store and one ledger file::

    # a cold run fills the store and writes ledgers/matrix.ledger.jsonl
    python -m repro.scenarios matrix --quick --cache-dir store --ledger ledgers
    # an interrupted campaign resumes from its store
    python -m repro.scenarios matrix --quick --resume --cache-dir store
    # render the campaign's ledger
    python -m repro.obs report ledgers --store store

``--ledger DIR`` appends durable accounting records into one
``*.ledger.jsonl`` file per command: one per submitted batch (its job
counts and cache hits) and one per simulated job, written as its result is
stored (its label, seconds and work counters).  It is observability-only
and leaves every result digest bit-identical.

``--resume`` reports how much of the planned job list is already cached,
then simulates only the remainder (a warm store reports ``0 simulations``).
Bad input (an unknown scenario, an empty selection, a ``--heartbeat``
that is not positive, ``--workers`` that is neither an integer nor ``auto``,
``--window`` below 1, a negative ``--warmup``, ``--resume`` without
``--cache-dir``) prints ``error:`` and exits 2 before any file or directory
is created.  A store written under another ``FINGERPRINT_VERSION`` prints
``error:`` naming both versions and exits 1.  See ``docs/OPERATIONS.md``
for the store layout and recovery.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.analysis.reporting import format_table
from repro.engine import CacheVersionError, ExperimentEngine, make_engine, parse_workers
from repro.obs.logging import run_cli
from repro.scenarios.campaign import CampaignResult, campaign_jobs, run_campaign
from repro.scenarios.library import (
    FAMILIES,
    QUICK_MATRIX_SCENARIOS,
    SCENARIOS,
    get_scenario,
)
from repro.scenarios.spec import ScenarioSpec

#: CI-sized windows for the quick campaign matrix (chosen so the 16-scenario
#: matrix finishes in about a minute on one worker).
QUICK_WINDOW = 1_200
QUICK_WARMUP = 2_000


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.scenarios`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Browse workload scenarios and run campaign matrices.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list the scenario library")
    list_parser.add_argument("--family", choices=FAMILIES, default=None)
    list_parser.add_argument("--json", action="store_true", dest="as_json")

    describe_parser = subparsers.add_parser("describe", help="show one scenario")
    describe_parser.add_argument("name")
    describe_parser.add_argument("--json", action="store_true", dest="as_json")

    def add_run_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--window", type=int, default=None, help="measured window")
        sub.add_argument("--warmup", type=int, default=None, help="warm-up instructions")
        sub.add_argument(
            "--search-mode",
            choices=("factored", "exhaustive"),
            default="factored",
            help="Program-Adaptive search mode (default factored)",
        )
        sub.add_argument(
            "--workers",
            default="1",
            help='worker processes ("auto" = one per core; default 1)',
        )
        sub.add_argument(
            "--cache-dir",
            default=None,
            help="persistent on-disk result cache directory",
        )
        sub.add_argument(
            "--heartbeat",
            nargs="?",
            type=float,
            const=30.0,
            default=None,
            metavar="SECONDS",
            help="print an engine progress line to stderr at most every SECONDS seconds "
            "(default 30 when the flag is given without a value)",
        )
        sub.add_argument(
            "--ledger",
            default=None,
            metavar="DIR",
            help="append per-batch and per-job run-ledger records into DIR "
            "(one *.ledger.jsonl per command; see python -m repro.obs report)",
        )
        sub.add_argument("--json", action="store_true", dest="as_json")

    run_parser = subparsers.add_parser("run", help="run one scenario's comparison")
    run_parser.add_argument("name")
    add_run_options(run_parser)

    matrix_parser = subparsers.add_parser(
        "matrix", help="run the scenario x machine-style campaign matrix"
    )
    matrix_parser.add_argument(
        "--scenarios",
        nargs="+",
        default=None,
        help="explicit scenario names (default: the whole library)",
    )
    matrix_parser.add_argument(
        "--family",
        choices=FAMILIES,
        default=None,
        help="restrict the matrix to one family",
    )
    matrix_parser.add_argument(
        "--quick",
        action="store_true",
        help=f"16-scenario subset at CI-sized windows "
        f"(window {QUICK_WINDOW}, warmup {QUICK_WARMUP})",
    )
    matrix_parser.add_argument(
        "--resume",
        action="store_true",
        help="report how much of the planned job list the --cache-dir "
        "already holds, then simulate only the remainder",
    )
    add_run_options(matrix_parser)
    return parser


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    return build_parser().parse_args(argv)


def _scenario_table(scenarios: Sequence[ScenarioSpec]) -> str:
    rows = []
    for scenario in scenarios:
        shape = f"{len(scenario.phases)}" if scenario.phases else "steady"
        rows.append(
            (
                scenario.name,
                scenario.family,
                scenario.base or "-",
                shape,
                scenario.phase_program_length or "-",
                scenario.description,
            )
        )
    return format_table(
        ("scenario", "family", "base", "phases", "period", "description"), rows
    )


def _print_campaign(
    result: CampaignResult, *, as_json: bool, engine: ExperimentEngine | None = None
) -> None:
    if as_json:
        # Machine-readable mode stays pure JSON (consumers parse stdout
        # wholesale); cache accounting is a text-mode extra.
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return
    print(
        f"Campaign over {len(result.rows)} scenario(s) x 3 machine styles "
        f"({result.simulations} simulations, {result.cache_hits} cache hits, "
        f"{result.batch_duplicates} batch duplicates)"
    )
    print()
    print(result.render())
    if engine is not None and engine.cache is not None:
        print()
        print(engine.cache.stats.describe())


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _parse_args(argv)

    if args.command == "list":
        scenarios = [
            scenario
            for scenario in SCENARIOS.values()
            if args.family is None or scenario.family == args.family
        ]
        if args.as_json:
            print(json.dumps([s.to_dict() for s in scenarios], indent=2))
        else:
            print(_scenario_table(scenarios))
        return 0

    if args.command == "describe":
        try:
            scenario = get_scenario(args.name)
        except KeyError as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return 2
        if args.as_json:
            print(json.dumps(scenario.to_dict(), indent=2))
            return 0
        profile = scenario.build_profile()
        print(scenario.describe())
        if scenario.description:
            print(f"  {scenario.description}")
        print(f"  window: {profile.simulation_window} instructions")
        if scenario.overrides:
            print("  profile delta:")
            for key in sorted(scenario.overrides):
                print(f"    {key} = {scenario.overrides[key]!r}")
        if scenario.phases:
            print(f"  phase program ({scenario.phase_program_length} instructions/cycle):")
            for index, phase in enumerate(scenario.phases):
                overrides = ", ".join(
                    f"{key}={phase.overrides[key]:g}" for key in sorted(phase.overrides)
                )
                print(f"    [{index}] {phase.length} instructions: {overrides}")
        return 0

    # run / matrix: bad input is rejected before any file or directory exists.
    try:
        scenarios = _selected_scenarios(args)
        _check_run_options(args)
        workers = parse_workers(args.workers)
    except (KeyError, ValueError) as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2

    engine = make_engine(workers=workers, cache_dir=args.cache_dir)
    if args.heartbeat is not None:
        engine.heartbeat_seconds = args.heartbeat

    if args.ledger is not None:
        from repro.obs.ledger import open_ledger

        engine.ledger = open_ledger(
            args.ledger,
            label=args.command if args.command == "matrix" else f"run-{args.name}",
        )
    try:
        return _run_or_matrix(args, engine, scenarios)
    except CacheVersionError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        if engine.ledger is not None:
            engine.ledger.close()


def _selected_scenarios(args: argparse.Namespace) -> list[ScenarioSpec]:
    """The scenarios a run/matrix invocation names.

    Raises :class:`KeyError` for an unknown name and :class:`ValueError` for
    an empty selection.
    """
    if args.command == "run":
        return [get_scenario(args.name)]
    if args.scenarios is not None:
        scenarios = [get_scenario(name) for name in args.scenarios]
    elif args.quick:
        scenarios = [get_scenario(name) for name in QUICK_MATRIX_SCENARIOS]
    else:
        scenarios = list(SCENARIOS.values())
    if args.family is not None:
        scenarios = [s for s in scenarios if s.family == args.family]
    if not scenarios:
        raise ValueError("no scenarios selected")
    return scenarios


def _check_run_options(args: argparse.Namespace) -> None:
    """Raise :class:`ValueError` naming the first invalid run/matrix option."""
    if args.window is not None and args.window < 1:
        raise ValueError(f"--window must be at least 1, got {args.window}")
    if args.warmup is not None and args.warmup < 0:
        raise ValueError(f"--warmup must not be negative, got {args.warmup}")
    if args.heartbeat is not None and not args.heartbeat > 0:  # NaN fails too
        raise ValueError(f"--heartbeat must be positive, got {args.heartbeat}")
    if getattr(args, "resume", False) and args.cache_dir is None:
        raise ValueError("--resume requires --cache-dir")


def _run_or_matrix(
    args: argparse.Namespace, engine: ExperimentEngine, scenarios: list[ScenarioSpec]
) -> int:
    """The shared run/matrix body (resume count, campaign, output)."""
    window, warmup = args.window, args.warmup
    if getattr(args, "quick", False):
        window = window if window is not None else QUICK_WINDOW
        warmup = warmup if warmup is not None else QUICK_WARMUP

    if getattr(args, "resume", False):
        jobs = campaign_jobs(scenarios, search_mode=args.search_mode, window=window, warmup=warmup)
        fingerprints = {job.fingerprint() for job in jobs}
        cached = sum(1 for fp in fingerprints if fp in engine.cache)
        print(
            f"resume: {cached} of {len(fingerprints)} planned job(s) already "
            f"in {args.cache_dir}; simulating the remainder"
        )

    result = run_campaign(
        scenarios,
        search_mode=args.search_mode,
        window=window,
        warmup=warmup,
        engine=engine,
    )
    _print_campaign(result, as_json=args.as_json, engine=engine)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(run_cli(main))
