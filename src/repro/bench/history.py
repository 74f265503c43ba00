"""Benchmark-trajectory analysis of the committed ``BENCH_*.json`` files.

The recording layer (:mod:`repro.bench.recording`) appends one entry per
suite invocation; this module turns those histories into the per-suite
trajectory an operator (or EXPERIMENTS.md) wants to read: wall-clock and
calibration-normalised seconds per entry, the delta against the previous
like-for-like entry, and a regression flag when the normalised cost grew
beyond the tolerance the ``--check`` gate uses.

Deltas are computed on the *normalized* metric and only between entries
recorded with the same parameterisation (``quick`` vs full): raw seconds
across different hosts or run sizes are not comparable, which is exactly
why the recording schema carries the calibration time and parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.bench.baseline import DEFAULT_TOLERANCE
from repro.bench.recording import load_history
from repro.bench.schema import BenchEntry

__all__ = ["HistoryRow", "load_trajectories", "render_history"]


@dataclass(slots=True)
class HistoryRow:
    """One recorded suite invocation in an experiment's trajectory."""

    timestamp: str
    mode: str
    seconds: float
    normalized: float
    simulations: int
    #: Percent change of ``normalized`` against the previous row of the same
    #: mode (``None`` for the first such row).
    delta_percent: float | None = None
    #: True when the normalised cost grew beyond the regression tolerance.
    regression: bool = False

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form for ``--json`` output."""
        return {
            "timestamp": self.timestamp,
            "mode": self.mode,
            "seconds": round(self.seconds, 4),
            "normalized": round(self.normalized, 4),
            "simulations": self.simulations,
            "delta_percent": (
                round(self.delta_percent, 2) if self.delta_percent is not None else None
            ),
            "regression": self.regression,
        }


def _entry_mode(entry: BenchEntry) -> str:
    return "quick" if entry.parameters.get("quick") else "full"


def _rows_for_entries(
    entries: list[Mapping[str, Any]], *, tolerance: float, limit: int | None
) -> list[HistoryRow]:
    rows: list[HistoryRow] = []
    previous_normalized: dict[str, float] = {}
    for payload in entries:
        try:
            entry = BenchEntry.from_dict(payload)
        except (ValueError, KeyError, TypeError):
            continue
        mode = _entry_mode(entry)
        normalized = sum(run.normalized for run in entry.runs)
        simulations = sum(run.simulations for run in entry.runs)
        delta: float | None = None
        regression = False
        baseline = previous_normalized.get(mode)
        if baseline is not None and baseline > 0:
            delta = (normalized - baseline) / baseline * 100.0
            regression = normalized > baseline * (1.0 + tolerance)
        previous_normalized[mode] = normalized
        rows.append(
            HistoryRow(
                timestamp=entry.timestamp,
                mode=mode,
                seconds=entry.total_seconds,
                normalized=normalized,
                simulations=simulations,
                delta_percent=delta,
                regression=regression,
            )
        )
    if limit is not None:
        rows = rows[-limit:]
    return rows


def load_trajectories(
    output_dir: str | Path,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    limit: int | None = None,
) -> dict[str, list[HistoryRow]]:
    """Per-experiment trajectories from every ``BENCH_*.json`` in *output_dir*.

    Experiment keys follow the recording layer (a file can hold several —
    ``BENCH_sweep.json`` carries the sweep, sensitivity, energy and
    scenarios trajectories).  Schema-invalid entries are skipped, matching
    :func:`repro.bench.recording.latest_entry`'s tolerance for old rows;
    a file that is not a JSON object raises
    :class:`~repro.obs.records.RecordFileError`.  *limit* keeps only the
    newest N rows per experiment.
    """
    output_dir = Path(output_dir)
    paths = sorted(output_dir.glob("BENCH_*.json"))
    if not paths:
        raise FileNotFoundError(f"no BENCH_*.json files in {output_dir}")
    trajectories: dict[str, list[HistoryRow]] = {}
    for path in paths:
        for experiment, entries in sorted(load_history(path).items()):
            rows = _rows_for_entries(entries, tolerance=tolerance, limit=limit)
            if rows:
                trajectories.setdefault(experiment, []).extend(rows)
    return trajectories


def _format_row(row: HistoryRow) -> list[str]:
    delta = f"{row.delta_percent:+.1f}%" if row.delta_percent is not None else "-"
    flag = "REGRESSION" if row.regression else ""
    return [
        row.timestamp,
        row.mode,
        f"{row.seconds:.2f}",
        f"{row.normalized:.1f}",
        str(row.simulations),
        delta,
        flag,
    ]


def render_history(
    trajectories: Mapping[str, list[HistoryRow]], *, markdown: bool = False
) -> str:
    """Render trajectories as per-experiment tables (ASCII or Markdown)."""
    headers = ["timestamp", "mode", "seconds", "normalized", "simulations", "delta", "flag"]
    lines: list[str] = []
    for experiment in sorted(trajectories):
        rows = [_format_row(row) for row in trajectories[experiment]]
        if markdown:
            lines.append(f"### {experiment}")
            lines.append("")
            lines.append("| " + " | ".join(headers) + " |")
            lines.append("|" + "|".join(" --- " for _ in headers) + "|")
            for row in rows:
                lines.append("| " + " | ".join(cell or " " for cell in row) + " |")
        else:
            lines.append(f"{experiment}:")
            widths = [len(header) for header in headers]
            for row in rows:
                for index, cell in enumerate(row):
                    widths[index] = max(widths[index], len(cell))
            lines.append(
                "  " + "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()
            )
            for row in rows:
                lines.append(
                    "  " + "  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip()
                )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
