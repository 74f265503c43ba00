"""The campaign report: one ASCII/Markdown view of a campaign's ledgers.

``python -m repro.obs report`` fuses run ledgers through
:func:`~repro.obs.ledger.summarize_ledgers` and renders the operator-facing
summary in one place: work accounting (jobs, simulations, cache
efficiency), engine throughput and utilization, the job wall-clock and
queue-latency histograms as ASCII bars, and — when the operator points it
at them — result-store health (``--store``, via
:func:`repro.engine.cli.inspect_store`) and reconfiguration totals joined
from telemetry traces (``--traces``, via
:func:`repro.obs.recorder.read_trace`).

Pure rendering: everything here reads ledgers/traces/stores and formats
text; nothing is written back, and nothing simulation-visible depends on
it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.obs.events import RECONFIGURATION
from repro.obs.ledger import LedgerSummary
from repro.obs.metrics import Histogram
from repro.obs.recorder import read_trace

__all__ = ["render_histogram", "render_report"]

#: Width (characters) of the widest histogram bar.
_BAR_WIDTH = 30


def _heading(title: str, markdown: bool) -> list[str]:
    if markdown:
        return [f"## {title}", ""]
    return [title, "-" * len(title)]


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]], markdown: bool) -> list[str]:
    if markdown:
        lines = ["| " + " | ".join(headers) + " |"]
        lines.append("|" + "|".join(" --- " for _ in headers) + "|")
        for row in rows:
            lines.append("| " + " | ".join(row) + " |")
        return lines
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = ["  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)).rstrip()]
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return lines


def render_histogram(histogram: Histogram, *, markdown: bool = False) -> list[str]:
    """ASCII bucket bars for one histogram (empty buckets elided)."""
    if not histogram.count:
        return ["(no samples)"]
    rows: list[list[str]] = []
    peak = max(histogram.counts)
    for index, count in enumerate(histogram.counts):
        if not count:
            continue
        label = (
            f"<= {format(histogram.bounds[index], 'g')}s"
            if index < len(histogram.bounds)
            else f"> {format(histogram.bounds[-1], 'g')}s"
        )
        bar = "#" * max(1, round(_BAR_WIDTH * count / peak))
        rows.append([label, str(count), f"`{bar}`" if markdown else bar])
    lines = _table(["bucket", "count", "share"], rows, markdown)
    lines.append(
        f"{histogram.count} sample(s): mean {histogram.mean:.3f}s, "
        f"min {histogram.min:.3f}s, max {histogram.max:.3f}s"
    )
    return lines


def _reconfiguration_totals(traces: Sequence[str | Path]) -> dict[str, Any]:
    """Join reconfiguration counts per structure across trace files."""
    totals: dict[str, int] = {}
    events_seen = 0
    for path in traces:
        _, events = read_trace(path)
        for event in events:
            if event.type != RECONFIGURATION:
                continue
            events_seen += 1
            structure = str(event.data.get("structure", "?"))
            totals[structure] = totals.get(structure, 0) + 1
    return {"traces": len(list(traces)), "reconfigurations": events_seen, "structures": totals}


def render_report(
    summary: LedgerSummary,
    *,
    store: Mapping[str, Any] | None = None,
    traces: Sequence[str | Path] | None = None,
    markdown: bool = False,
) -> str:
    """Render the campaign report for *summary* (plus optional joins)."""
    lines: list[str] = []
    if markdown:
        lines += ["# Campaign report", ""]
    else:
        lines += ["campaign report", "=" * len("campaign report")]

    lines += _heading("Campaign", markdown)
    executor = ", ".join(sorted(summary.executor_modes)) or "none"
    lines += _table(
        ["field", "value"],
        [
            ["ledgers", str(summary.ledgers)],
            ["batch records", str(summary.records)],
            ["executor modes", executor],
            ["campaign digest", summary.fingerprint_digest()[:16]],
        ],
        markdown,
    )
    lines.append("")

    lines += _heading("Work", markdown)
    jobs = summary.jobs_submitted
    hits = summary.cache_hits
    efficiency = f"{hits / jobs:.0%}" if jobs else "n/a"
    lines += _table(
        ["field", "value"],
        [
            ["jobs submitted", str(jobs)],
            ["unique jobs", str(len(summary.unique_fingerprints))],
            ["simulations", str(summary.simulations)],
            ["cache hits", f"{hits} ({efficiency} of submitted)"],
            ["batch duplicates", str(summary.batch_duplicates)],
        ],
        markdown,
    )
    lines.append("")

    lines += _heading("Engine", markdown)
    metrics = summary.metrics
    throughput = (
        f"{metrics.jobs_completed / metrics.busy_seconds:.2f} jobs/s busy"
        if metrics.busy_seconds > 0
        else "n/a"
    )
    lines += _table(
        ["field", "value"],
        [
            ["jobs completed", str(metrics.jobs_completed)],
            ["batches", str(metrics.batches)],
            ["busy seconds", f"{metrics.busy_seconds:.3f}"],
            ["capacity seconds", f"{metrics.capacity_seconds:.3f}"],
            ["worker utilization", f"{metrics.worker_utilization:.0%}"],
            ["throughput", throughput],
        ],
        markdown,
    )
    lines.append("")

    lines += _heading("Job wall-clock", markdown)
    lines += render_histogram(metrics.job_seconds, markdown=markdown)
    lines.append("")
    lines += _heading("Queue latency", markdown)
    lines += render_histogram(metrics.queue_latency, markdown=markdown)
    lines.append("")

    if store is not None:
        lines += _heading("Result store", markdown)
        lines += _table(
            ["field", "value"],
            [
                ["directory", str(store.get("directory", "?"))],
                ["entries", str(store.get("entries", "?"))],
                ["servable", str(store.get("servable_entries", "?"))],
                ["unreadable", str(store.get("unreadable_entries", "?"))],
                ["version mismatches", str(store.get("version_mismatches", "?"))],
            ],
            markdown,
        )
        lines.append("")

    if traces:
        totals = _reconfiguration_totals(traces)
        lines += _heading("Reconfigurations (from traces)", markdown)
        rows = [
            [structure, str(count)]
            for structure, count in sorted(totals["structures"].items())
        ]
        rows.append(["total", str(totals["reconfigurations"])])
        lines += _table(["structure", "reconfigurations"], rows, markdown)
        lines.append(f"joined from {totals['traces']} trace file(s)")
        lines.append("")

    return "\n".join(lines).rstrip() + "\n"
