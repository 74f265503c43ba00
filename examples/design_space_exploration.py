"""Whole-program (Program-Adaptive) configuration search for one workload.

The paper's Program-Adaptive mode picks, per application, the adaptive MCD
configuration with the best whole-program run time.  This example performs
the search through the parallel experiment engine, prints every
configuration it evaluated, and reports the winner and its gain over the
fully synchronous baseline.

Usage::

    python examples/design_space_exploration.py [workload-name]
        [--mode factored|exhaustive] [--window N]
        [--workers N|auto] [--cache-dir PATH] [--no-cache]

``--mode exhaustive`` walks all 256 adaptive configurations (slow; use
``--workers auto`` to spread the batch over every core).  ``--cache-dir``
persists results on disk so a repeated search costs nothing.
"""

from __future__ import annotations

import argparse

from repro.analysis import program_adaptive_search, run_synchronous
from repro.analysis.reporting import format_table
from repro.engine import make_engine
from repro.workloads import get_workload


def worker_count(value: str) -> int | str:
    if value == "auto":
        return value
    try:
        workers = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        ) from None
    if workers < 1:
        raise argparse.ArgumentTypeError("worker count must be at least 1")
    return workers


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Program-Adaptive design-space search through the experiment engine"
    )
    parser.add_argument("workload", nargs="?", default="em3d", help="workload name")
    parser.add_argument(
        "--mode",
        choices=("factored", "exhaustive"),
        default="factored",
        help="search mode (factored ~15 simulations, exhaustive 256)",
    )
    parser.add_argument("--window", type=int, default=8_000, help="simulated instructions")
    parser.add_argument(
        "--workers",
        type=worker_count,
        default=1,
        help="worker processes for the sweep ('auto' = one per core)",
    )
    parser.add_argument("--cache-dir", default=None, help="persistent result-cache directory")
    parser.add_argument(
        "--no-cache", action="store_true", help="disable result caching entirely"
    )
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    profile = get_workload(args.workload)
    engine = make_engine(
        workers=args.workers, cache_dir=args.cache_dir, use_cache=not args.no_cache
    )

    print(
        f"searching adaptive configurations for {profile.name} "
        f"(mode={args.mode}, workers={engine.executor.workers})..."
    )
    sweep = program_adaptive_search(
        profile, mode=args.mode, window=args.window, engine=engine
    )
    baseline = run_synchronous(profile, window=args.window, engine=engine)

    rows = []
    for indices, result in sorted(
        sweep.evaluated.items(), key=lambda item: item[1].execution_time_ps
    ):
        rows.append(
            (
                indices.describe(),
                f"{result.execution_time_us:.2f}",
                f"{result.improvement_over(baseline) * 100:+.1f}%",
            )
        )
    print(format_table(("configuration", "time (us)", "vs synchronous"), rows))

    print(
        f"\nbest configuration: {sweep.best_indices.describe()} "
        f"(I$ {sweep.best_result.machine.split('I$')[1].split(',')[0]})"
    )
    print(
        f"program-adaptive improvement over the synchronous baseline: "
        f"{sweep.best_result.improvement_over(baseline) * 100:+.1f}%"
    )
    stats = engine.stats
    print(
        f"engine: {stats.jobs_submitted} jobs, {stats.simulations} simulated, "
        f"{stats.jobs_avoided} served without simulation"
    )


if __name__ == "__main__":
    main()
