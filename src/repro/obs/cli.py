"""``python -m repro.obs`` — record and render telemetry traces and ledgers.

Five subcommands; an unreadable trace or ledger file
(:class:`~repro.obs.records.RecordFileError`) prints ``error:`` and exits 1:

``trace``
    Run one phase-adaptive simulation of a scenario or benchmark workload
    with the trace recorder attached and write the JSONL event stream.
    Runs the job directly (never through the engine cache — the recorder
    is not part of the job's fingerprint, so a cache hit would skip the
    simulation and produce no trace).  An unknown target, a ``--window``
    below 1, a negative ``--warmup`` or an empty ``--out`` prints ``error:``
    and exits 2 before any file is opened.

``summarize``
    Event counts, the reconfiguration ledger and per-structure controller
    statistics of one trace file.

``timeline``
    ASCII per-structure decision timeline under a legend of what each
    configuration index names: one character per controller interval (the
    configuration index chosen), with a marker row showing changes
    (``*``), hysteresis-suppressed winners (``h``), streak-suppressed
    winners (``s``) and plain holds (``.``), plus scenario phase boundaries
    (``P``) aligned to the interval they fell in.  A ``--width`` below 1 or
    a ``--structure`` absent from the trace prints ``error:`` and exits 2.

``diff``
    Compare two traces: per-type event counts, per-structure decision
    sequences (first divergence) and reconfiguration ledgers.

``report``
    Read persistent run ledgers (:mod:`repro.obs.ledger`): fuse ledger
    files, or every ledger in a directory, and render the campaign report —
    work accounting, the campaign digest, the slowest jobs with their µs per
    processed edge, plus result-store health (``--store``).  ``--json``
    prints the fused accounting and summed work instead
    (:meth:`~repro.obs.ledger.LedgerSummary.to_dict`).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

from repro.obs.events import CONTROLLER_INTERVAL, PHASE_BOUNDARY, RECONFIGURATION, TraceEvent
from repro.obs.recorder import read_trace
from repro.obs.records import RecordFileError

__all__ = ["build_parser", "main"]

#: Quick-mode run shape, matching the scenario CLI's ``--quick``.
QUICK_WINDOW = 1_200
QUICK_WARMUP = 2_000

_DEFAULT_TIMELINE_WIDTH = 64


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.obs`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Record and render simulator telemetry traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trace = sub.add_parser(
        "trace",
        help="run one traced phase-adaptive simulation and write a JSONL trace",
    )
    trace.add_argument(
        "target", help="scenario name (python -m repro.scenarios list) or workload name"
    )
    trace.add_argument(
        "--out",
        default=None,
        help="output JSONL path (default: <target>.trace.jsonl)",
    )
    trace.add_argument(
        "--window", type=int, default=None, help="measured instruction window"
    )
    trace.add_argument(
        "--warmup", type=int, default=None, help="warm-up instruction count"
    )
    trace.add_argument(
        "--quick",
        action="store_true",
        help=f"small smoke-test run (window {QUICK_WINDOW}, warmup {QUICK_WARMUP})",
    )
    trace.add_argument("--seed", type=int, default=0, help="simulation seed")
    trace.add_argument(
        "--trace-seed", type=int, default=None, help="workload trace seed"
    )

    summarize = sub.add_parser("summarize", help="summarise one trace file")
    summarize.add_argument("trace", help="JSONL trace file")
    summarize.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    timeline = sub.add_parser(
        "timeline", help="ASCII per-structure decision timeline"
    )
    timeline.add_argument("trace", help="JSONL trace file")
    timeline.add_argument(
        "--width",
        type=int,
        default=_DEFAULT_TIMELINE_WIDTH,
        help="intervals per output row",
    )
    timeline.add_argument(
        "--structure",
        default=None,
        help="restrict to one structure (dcache, icache, int-queue, fp-queue)",
    )

    diff = sub.add_parser("diff", help="compare two trace files")
    diff.add_argument("left", help="first JSONL trace file")
    diff.add_argument("right", help="second JSONL trace file")

    report = sub.add_parser(
        "report", help="render the campaign report from run ledgers"
    )
    report.add_argument(
        "sources",
        nargs="+",
        help="ledger files or directories of *.ledger.jsonl",
    )
    report.add_argument(
        "--store",
        default=None,
        help="result-cache store directory to include health for",
    )
    output = report.add_mutually_exclusive_group()
    output.add_argument(
        "--markdown", action="store_true", help="Markdown tables instead of ASCII"
    )
    output.add_argument(
        "--json",
        action="store_true",
        help="the fused accounting and summed work as JSON (no store health)",
    )
    report.add_argument(
        "--out", default=None, help="write the report to a file instead of stdout"
    )
    return parser


# ------------------------------------------------------------------ helpers


def _interval_events(events: Sequence[TraceEvent]) -> dict[str, list[TraceEvent]]:
    """Controller-interval events grouped by structure, in emission order."""
    grouped: dict[str, list[TraceEvent]] = {}
    for event in events:
        if event.type == CONTROLLER_INTERVAL:
            grouped.setdefault(event.data.get("structure", "?"), []).append(event)
    return grouped


def _decision_symbol(event: TraceEvent) -> str:
    """One timeline character naming the configuration an interval chose."""
    return str(event.data["best_index"])


def _marker_symbol(event: TraceEvent) -> str:
    if event.data.get("changed"):
        return "*"
    suppressed = event.data.get("suppressed_by", "")
    if suppressed == "hysteresis":
        return "h"
    if suppressed == "streak":
        return "s"
    return "."


def _phase_row(
    intervals: Sequence[TraceEvent], boundaries: Sequence[int]
) -> str | None:
    """``P`` markers for the interval each phase boundary committed inside."""
    if not boundaries:
        return None
    row = ["."] * len(intervals)
    previous = 0
    remaining = sorted(boundaries)
    for slot, event in enumerate(intervals):
        while remaining and previous < remaining[0] <= event.committed:
            row[slot] = "P"
            remaining.pop(0)
        previous = event.committed
    return "".join(row)


# --------------------------------------------------------------- subcommands


def _cmd_trace(args: argparse.Namespace) -> int:
    # Imported lazily: the driver pulls in the engine and scenario layers,
    # which summarize/timeline/diff (pure file readers) never need.
    from repro.engine.job import DEFAULT_TRACE_SEED
    from repro.obs.driver import resolve_target, run_traced

    window = args.window
    warmup = args.warmup
    if args.quick:
        window = window if window is not None else QUICK_WINDOW
        warmup = warmup if warmup is not None else QUICK_WARMUP
    out = args.out if args.out is not None else f"{args.target}.trace.jsonl"
    # Bad input is reported before anything runs or any file is opened.
    try:
        if not out:
            raise ValueError("--out must name the JSONL output file")
        if window is not None and window < 1:
            raise ValueError(f"--window must be at least 1, got {window}")
        if warmup is not None and warmup < 0:
            raise ValueError(f"--warmup must not be negative, got {warmup}")
        resolve_target(args.target)
    except (KeyError, ValueError) as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    run = run_traced(
        args.target,
        path=out,
        window=window,
        warmup=warmup,
        trace_seed=(
            args.trace_seed if args.trace_seed is not None else DEFAULT_TRACE_SEED
        ),
        seed=args.seed,
    )
    result = run.result
    print(f"traced {run.job_label} -> {run.path}")
    print(
        f"  committed {result.committed_instructions} instruction(s) in "
        f"{result.execution_time_ps} ps"
    )
    total = sum(run.emitted.values())
    print(f"  {total} event(s) recorded:")
    for name in sorted(run.emitted):
        print(f"    {name:<20} {run.emitted[name]}")
    return 0


def _summary_payload(meta: dict[str, Any], events: Sequence[TraceEvent]) -> dict[str, Any]:
    counts: dict[str, int] = {}
    for event in events:
        counts[event.type] = counts.get(event.type, 0) + 1
    ledger = [
        {
            "committed": event.committed,
            "time_ps": event.time_ps,
            "structure": event.data.get("structure"),
            "configuration": event.data.get("configuration"),
            "upsizing": event.data.get("upsizing"),
            "lock_time_ps": event.data.get("lock_time_ps"),
        }
        for event in events
        if event.type == RECONFIGURATION
    ]
    structures = {}
    for structure, intervals in sorted(_interval_events(events).items()):
        structures[structure] = {
            "intervals": len(intervals),
            "changes": sum(1 for e in intervals if e.data.get("changed")),
            "hysteresis_suppressed": sum(
                1 for e in intervals if e.data.get("suppressed_by") == "hysteresis"
            ),
            "streak_suppressed": sum(
                1 for e in intervals if e.data.get("suppressed_by") == "streak"
            ),
        }
    return {
        "meta": meta,
        "event_counts": counts,
        "reconfigurations": ledger,
        "structures": structures,
    }


def _cmd_summarize(args: argparse.Namespace) -> int:
    meta, events = read_trace(args.trace)
    payload = _summary_payload(meta, events)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    target = meta.get("target", meta.get("job", "?"))
    print(f"trace {args.trace}: {target}")
    for key in ("job", "window", "warmup"):
        if key in meta:
            print(f"  {key}: {meta[key]}")
    print(f"  {len(events)} event(s):")
    for name in sorted(payload["event_counts"]):
        print(f"    {name:<20} {payload['event_counts'][name]}")
    structures = payload["structures"]
    if structures:
        print("  controller decisions:")
        for structure, stats in structures.items():
            print(
                f"    {structure:<10} {stats['intervals']} interval(s), "
                f"{stats['changes']} change(s), "
                f"{stats['hysteresis_suppressed']} hysteresis-suppressed, "
                f"{stats['streak_suppressed']} streak-suppressed"
            )
    ledger = payload["reconfigurations"]
    if ledger:
        print("  reconfiguration ledger:")
        for entry in ledger:
            direction = "upsize" if entry["upsizing"] else "downsize"
            print(
                f"    @{entry['committed']:>8} {entry['structure']:<10} "
                f"-> {entry['configuration']} ({direction}, "
                f"lock {entry['lock_time_ps']} ps)"
            )
    else:
        print("  no reconfigurations applied")
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    if args.width < 1:
        print(f"error: --width must be at least 1, got {args.width}", file=sys.stderr)
        return 2
    meta, events = read_trace(args.trace)
    grouped = _interval_events(events)
    if args.structure is not None:
        if args.structure not in grouped:
            known = ", ".join(sorted(grouped)) or "none"
            print(
                f"error: structure {args.structure!r} not in trace (present: {known})",
                file=sys.stderr,
            )
            return 2
        grouped = {args.structure: grouped[args.structure]}
    if not grouped:
        print("no controller-interval events in trace")
        return 0
    boundaries = [e.committed for e in events if e.type == PHASE_BOUNDARY]
    print(f"timeline {args.trace}: {meta.get('target', meta.get('job', '?'))}")
    print(
        "  one column per controller interval; cfg = chosen configuration "
        "index, evt: *=change h=hysteresis-suppressed s=streak-suppressed "
        ".=hold, phs: P=phase boundary"
    )
    for structure, intervals in sorted(grouped.items()):
        configurations = intervals[0].data["configurations"]
        legend = " ".join(f"{i}={name}" for i, name in enumerate(configurations))
        print(f"  {structure} ({legend})")
        rows = {
            "cfg": "".join(_decision_symbol(e) for e in intervals),
            "evt": "".join(_marker_symbol(e) for e in intervals),
        }
        phase_row = _phase_row(intervals, boundaries)
        if phase_row is not None:
            rows["phs"] = phase_row
        length = len(rows["cfg"])
        for start in range(0, length, args.width):
            for name, row in rows.items():
                print(f"    {name} {row[start:start + args.width]}")
            if start + args.width < length:
                print()
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    left_meta, left_events = read_trace(args.left)
    right_meta, right_events = read_trace(args.right)
    identical = True
    print(f"diff {args.left} vs {args.right}")
    left_target = left_meta.get("target", left_meta.get("job", "?"))
    right_target = right_meta.get("target", right_meta.get("job", "?"))
    if left_target != right_target:
        print(f"  target: {left_target} vs {right_target}")
        identical = False

    left_counts = _summary_payload(left_meta, left_events)["event_counts"]
    right_counts = _summary_payload(right_meta, right_events)["event_counts"]
    for name in sorted(set(left_counts) | set(right_counts)):
        a, b = left_counts.get(name, 0), right_counts.get(name, 0)
        if a != b:
            print(f"  {name}: {a} vs {b} event(s)")
            identical = False

    left_grouped = _interval_events(left_events)
    right_grouped = _interval_events(right_events)
    for structure in sorted(set(left_grouped) | set(right_grouped)):
        a = "".join(_decision_symbol(e) for e in left_grouped.get(structure, []))
        b = "".join(_decision_symbol(e) for e in right_grouped.get(structure, []))
        if a == b:
            continue
        identical = False
        divergence = next(
            (i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b))
        )
        print(
            f"  {structure}: decisions diverge at interval {divergence} "
            f"({a[divergence:divergence + 8] or '<end>'} vs "
            f"{b[divergence:divergence + 8] or '<end>'})"
        )

    left_ledger = [
        (e.committed, e.data.get("structure"), e.data.get("configuration"))
        for e in left_events
        if e.type == RECONFIGURATION
    ]
    right_ledger = [
        (e.committed, e.data.get("structure"), e.data.get("configuration"))
        for e in right_events
        if e.type == RECONFIGURATION
    ]
    if left_ledger != right_ledger:
        identical = False
        print(
            f"  reconfiguration ledgers differ "
            f"({len(left_ledger)} vs {len(right_ledger)} entr(ies))"
        )
    if identical:
        print("  traces are equivalent")
        return 0
    return 1


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.ledger import summarize_ledgers
    from repro.obs.report import render_report

    store = None
    if args.store is not None:
        if args.json:
            print("error: --json prints no store health; drop --store", file=sys.stderr)
            return 2
        # Imported lazily: the engine layer is only needed when --store asks
        # for result-cache health.
        from repro.engine.cli import inspect_store

        directory = Path(args.store)
        if not directory.is_dir():
            print(f"error: store {directory} is not a directory", file=sys.stderr)
            return 2
        store = inspect_store(directory)
    summary = summarize_ledgers(args.sources)
    if args.json:
        text = json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n"
    else:
        text = render_report(summary, store=store, markdown=args.markdown)
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote report to {args.out}")
    else:
        print(text, end="")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro.obs``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    command = {
        "trace": _cmd_trace,
        "summarize": _cmd_summarize,
        "timeline": _cmd_timeline,
        "diff": _cmd_diff,
        "report": _cmd_report,
    }[args.command]
    try:
        return command(args)
    except (RecordFileError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
