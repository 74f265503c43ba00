"""The campaign report: one ASCII/Markdown view of a campaign's ledgers.

``python -m repro.obs report`` fuses run ledgers through
:func:`~repro.obs.ledger.summarize_ledgers` and renders the operator-facing
summary in one place: work accounting (jobs, simulations, cache hits and
the summed work counters of the simulated jobs), the
:data:`SLOWEST_JOBS` slowest jobs with their µs per processed edge — so a
slow job can be told from a large one — and, when the operator points it
at one, result-store health (``--store``, via
:func:`repro.engine.cli.inspect_store`).

µs per processed edge divides a job's whole runner time by the clock edges
its measured window processed.  The runner time also covers set-up,
warm-up and, for the first job on a trace in its process, the trace's
compile, none of which processes an edge, so short jobs read high.

Pure rendering: everything here reads ledgers and stores and formats text;
nothing is written back, and nothing simulation-visible depends on it.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.obs.ledger import LedgerSummary

__all__ = ["SLOWEST_JOBS", "render_report"]

#: How many of the slowest simulated jobs the report lists.
SLOWEST_JOBS = 10


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


def _us_per_edge(work: Mapping[str, Any]) -> str:
    """Microseconds of runner time per processed edge of a job record or
    work total (see the module docstring for what the time covers)."""
    edges = work["processed_edges"]
    return f"{work['seconds'] * 1e6 / edges:.1f}" if edges else "n/a"


def render_report(
    summary: LedgerSummary,
    *,
    store: Mapping[str, Any] | None = None,
    markdown: bool = False,
) -> str:
    """Render the campaign report for *summary* (plus optional store health)."""
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
            ["batch records", str(summary.batches)],
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
    work = summary.work()
    lines += _table(
        ["field", "value"],
        [
            ["jobs submitted", str(jobs)],
            ["unique jobs", str(len(summary.unique_fingerprints))],
            ["simulations", str(summary.simulations)],
            ["cache hits", f"{hits} ({efficiency} of submitted)"],
            ["batch duplicates", str(summary.batch_duplicates)],
            ["simulated seconds", f"{work['seconds']:.3f}"],
            ["committed instructions", str(work["committed_instructions"])],
            ["processed edges", str(work["processed_edges"])],
            ["skipped edges", str(work["skipped_edges"])],
            ["configuration changes", str(work["configuration_changes"])],
            ["µs per processed edge", _us_per_edge(work)],
        ],
        markdown,
    )
    lines.append("")

    lines += _heading("Slowest jobs", markdown)
    slowest = sorted(summary.jobs, key=lambda job: job["seconds"], reverse=True)
    rows = [
        [
            job["job"],
            f"{job['seconds']:.3f}",
            _us_per_edge(job),
            str(job["processed_edges"]),
            str(job["committed_instructions"]),
            str(job["skipped_edges"]),
            str(job["configuration_changes"]),
        ]
        for job in slowest[:SLOWEST_JOBS]
    ]
    headers = ["job", "seconds", "µs/edge", "edges", "committed", "skipped", "changes"]
    lines += _table(headers, rows, markdown) if rows else ["(no simulated jobs)"]
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

    return "\n".join(lines).rstrip() + "\n"
