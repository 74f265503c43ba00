"""Run one benchmark workload; the last line of standard output is the result.

From the root of a checkout::

    python3 perfbench/run.py --workload fig6-quick --seed 0 --seconds 30 --trace 0

``--trace 0`` repeats the workload untraced for about ``--seconds`` and
reports the end-to-end metrics.  ``--trace 1`` alternates untraced and
traced repeats, reports the per-layer metrics, and writes the spans of the
traced repeats to ``perfbench/out/``.  ``README.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    parser.add_argument(
        "--seed", type=int, default=0, help="workload seed; 0 runs the repository seeds (1234, 0)"
    )
    parser.add_argument(
        "--seconds", type=float, default=30.0, help="time budget of the timed repeats"
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0, help="1 reports the per-layer metrics"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    sources = ROOT / "src" / "repro"
    if not sources.is_dir():
        print(f"perfbench: {sources} not found; run from a full checkout", file=sys.stderr)
        return 2
    # Import the benchmark package and the simulator from this checkout.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    started = time.perf_counter()
    from perfbench.harness import END_TO_END, PER_LAYER, end_to_end, measure, per_layer
    from perfbench.tracing import write_spans
    from perfbench.workloads import WORKLOADS, Seeds

    import_s = time.perf_counter() - started
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        known = ", ".join(WORKLOADS)
        print(f"perfbench: unknown workload {args.workload!r}; choose from {known}", file=sys.stderr)
        return 2
    seeds = Seeds.from_arg(args.seed)
    outcome = measure(workload, seeds, args.seconds, trace=bool(args.trace))
    if args.trace:
        metrics, units = per_layer(outcome), PER_LAYER
        spans = ROOT / "perfbench" / "out" / f"{workload.name}-seed{args.seed}.spans.jsonl"
        write_spans(spans, [r.recorder for r in outcome.repeats if r.recorder is not None])
    else:
        metrics, units = end_to_end(outcome, import_s), END_TO_END
    problems = outcome.problems
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    print(
        f"{workload.name} --seed {args.seed} (trace_seed {seeds.trace_seed}, "
        f"machine seed {seeds.seed}): {outcome.attempted} jobs, {outcome.failed} failed"
    )
    print(f"digest {outcome.repeats[0].digest}")
    for repeat in outcome.repeats:
        print(
            f"repeat {'traced' if repeat.traced else 'untraced'}: wall {repeat.wall_s:.4f} s, "
            f"cpu {repeat.cpu_s:.4f} s, "
            f"probe {repeat.probes_ms[0]:.3f}/{repeat.probes_ms[1]:.3f} ms, "
            f"{repeat.instructions} instructions"
        )
    values = {name: metrics.get(name, 0.0) for name in units}
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
