"""Plain-text report tables for the CLIs and examples."""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an ASCII table with right-padded columns."""
    rendered_rows = [[_render(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))
    lines = [
        "  ".join(header.ljust(widths[index]) for index, header in enumerate(headers)),
        "  ".join("-" * widths[index] for index in range(len(headers))),
    ]
    for row in rendered_rows:
        lines.append(
            "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row))
        )
    return "\n".join(lines)


def _render(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def improvement_table(comparisons: Iterable) -> str:
    """Render the Figure 6 style per-workload improvement table.

    *comparisons* is an iterable of
    :class:`~repro.analysis.sweep.WorkloadComparison`.
    """
    rows = []
    for comparison in comparisons:
        rows.append(
            (
                comparison.workload,
                f"{comparison.program_improvement * 100:+.1f}%",
                f"{comparison.phase_improvement * 100:+.1f}%",
            )
        )
    return format_table(("workload", "program-adaptive", "phase-adaptive"), rows)


def energy_table(comparisons: Iterable) -> str:
    """Render the per-workload energy / ED / ED^2 columns of a Figure 6 sweep.

    One row per :class:`~repro.analysis.sweep.WorkloadComparison`: the
    synchronous baseline's energy per instruction, each adaptive machine's
    energy reduction against it, and the phase-adaptive machine's
    energy-delay trade-off metrics.
    """
    rows = []
    for comparison in comparisons:
        baseline = comparison.energy_report_for("synchronous")
        rows.append(
            (
                comparison.workload,
                f"{baseline.energy_per_instruction_nj:.2f}",
                f"{comparison.program_energy_reduction * 100:+.1f}%",
                f"{comparison.phase_energy_reduction * 100:+.1f}%",
                f"{comparison.phase_edp_improvement * 100:+.1f}%",
                f"{comparison.phase_ed2p_improvement * 100:+.1f}%",
            )
        )
    return format_table(
        (
            "workload",
            "sync nJ/inst",
            "dE program",
            "dE phase",
            "dED phase",
            "dED^2 phase",
        ),
        rows,
    )
