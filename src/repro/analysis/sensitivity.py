"""Timing-uncertainty sensitivity analysis.

The paper's MCD results rest on its timing-uncertainty model — clock jitter
at every domain PLL and the 30 % arbitration window at domain crossings —
and on the control parameters of the phase-adaptive hardware (adaptation
interval, hysteresis).  This module sweeps those knobs over a workload set
and reports how the Figure 6 improvements move relative to the jitter-free
rows.

The driver is engine-batched: it first runs the ordinary jitter-free Figure 6
comparison (which fixes the Program-Adaptive winner per workload), then
submits *every* grid point for *every* workload to the
:class:`~repro.engine.ExperimentEngine` as one batch, so a parallel executor
sees the whole sensitivity surface at once and the result cache de-duplicates
points that coincide with the baseline (e.g. a controller-knob value for the
Program-Adaptive machine, which has no controllers).

Each grid point varies exactly one knob from its default (one-at-a-time
sensitivity, as the paper reports it):

* ``jitter_fraction`` — peak-to-peak clock jitter per domain period;
* ``sync_window_fraction`` — the unsafe capture window at domain crossings;
* ``interval_scale`` — the phase-adaptive adaptation interval, as a multiple
  of the window-scaled default;
* ``cache_hysteresis`` / ``queue_hysteresis`` — the controllers' change
  margins.

The knobs apply to the MCD machines only: the fully synchronous baseline
runs a single global clock with inter-domain synchronisation disabled, so the
paper models it free of inter-domain timing uncertainty, and it has no
controllers.  Every improvement — baseline and grid point — is therefore
measured against the same jitter-free synchronous row.  A grid point's jobs
are the baseline's Program- and Phase-Adaptive jobs, built by the
:mod:`repro.analysis.sweep` recipes, with one field changed by
:func:`dataclasses.replace`.

Run as a module for the CLI, which prints the jitter-free Figure 6 table per
workload and then the sensitivity surface::

    PYTHONPATH=src python -m repro.analysis.sensitivity --workloads gcc em3d --quick
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from repro.analysis.reporting import format_table, improvement_table
from repro.analysis.sweep import (
    WorkloadComparison,
    compare_workloads,
    phase_adaptive_job,
    program_adaptive_job,
)
from repro.energy import energy_reduction
from repro.engine import (
    DEFAULT_TRACE_SEED,
    ExperimentEngine,
    SimulationJob,
    default_engine,
    make_engine,
    parse_workers,
)
from repro.obs.logging import run_cli
from repro.workloads.characteristics import WorkloadProfile

__all__ = [
    "AXES",
    "FULL_GRIDS",
    "QUICK_GRIDS",
    "QUICK_WARMUP",
    "QUICK_WINDOW",
    "SensitivityPoint",
    "SensitivityReport",
    "WorkloadSensitivity",
    "sensitivity_sweep",
    "main",
]

#: Axis names, as they appear in reports and point records.
AXIS_JITTER = "jitter_fraction"
AXIS_SYNC_WINDOW = "sync_window_fraction"
AXIS_INTERVAL = "interval_scale"
AXIS_CACHE_HYSTERESIS = "cache_hysteresis"
AXIS_QUEUE_HYSTERESIS = "queue_hysteresis"

AXES = (
    AXIS_JITTER,
    AXIS_SYNC_WINDOW,
    AXIS_INTERVAL,
    AXIS_CACHE_HYSTERESIS,
    AXIS_QUEUE_HYSTERESIS,
)

#: Default grids.  Baseline values (jitter 0, window 0.3, scale 1.0 and the
#: AdaptiveControlParams hysteresis defaults) are implicit — the baseline row
#: carries them — so the grids list only the perturbed values.
DEFAULT_JITTER_FRACTIONS = (0.02, 0.05, 0.10)
DEFAULT_SYNC_WINDOW_FRACTIONS = (0.15, 0.45)
DEFAULT_INTERVAL_SCALES = (0.5, 2.0)
DEFAULT_CACHE_HYSTERESIS = (0.0, 0.16)
DEFAULT_QUEUE_HYSTERESIS = (0.15, 0.45)

#: The full grids as ``sensitivity_sweep`` keyword arguments.
FULL_GRIDS: Mapping[str, tuple[float, ...]] = {
    "jitter_fractions": DEFAULT_JITTER_FRACTIONS,
    "sync_window_fractions": DEFAULT_SYNC_WINDOW_FRACTIONS,
    "interval_scales": DEFAULT_INTERVAL_SCALES,
    "cache_hysteresis_values": DEFAULT_CACHE_HYSTERESIS,
    "queue_hysteresis_values": DEFAULT_QUEUE_HYSTERESIS,
}

#: CI-sized parameterisation behind the CLI's ``--quick`` flag: one value
#: per axis plus small windows.
QUICK_GRIDS: Mapping[str, tuple[float, ...]] = {
    "jitter_fractions": (0.05,),
    "sync_window_fractions": (0.45,),
    "interval_scales": (0.5,),
    "cache_hysteresis_values": (0.0,),
    "queue_hysteresis_values": (0.15,),
}
QUICK_WINDOW = 1_500
QUICK_WARMUP = 2_500


@dataclass(slots=True)
class WorkloadSensitivity:
    """One (grid point, workload) cell: improvements and their deltas.

    The energy columns measure each MCD machine's energy reduction against
    the same jitter-free synchronous row the timing improvements use.
    """

    workload: str
    program_improvement: float
    phase_improvement: float
    program_delta: float
    phase_delta: float
    program_energy_reduction: float = 0.0
    phase_energy_reduction: float = 0.0


@dataclass(slots=True)
class SensitivityPoint:
    """One grid point: a single knob moved off its default."""

    axis: str
    value: float
    per_workload: list[WorkloadSensitivity] = field(default_factory=list)

    def _mean(self, attribute: str) -> float:
        if not self.per_workload:
            return 0.0
        return sum(getattr(cell, attribute) for cell in self.per_workload) / len(
            self.per_workload
        )

    @property
    def program_improvement(self) -> float:
        """Mean Program-Adaptive improvement over the synchronous baseline."""
        return self._mean("program_improvement")

    @property
    def phase_improvement(self) -> float:
        """Mean Phase-Adaptive improvement over the synchronous baseline."""
        return self._mean("phase_improvement")

    @property
    def program_delta(self) -> float:
        """Mean change versus the jitter-free Program-Adaptive improvement."""
        return self._mean("program_delta")

    @property
    def phase_delta(self) -> float:
        """Mean change versus the jitter-free Phase-Adaptive improvement."""
        return self._mean("phase_delta")

    @property
    def program_energy_reduction(self) -> float:
        """Mean Program-Adaptive energy reduction vs. the synchronous row."""
        return self._mean("program_energy_reduction")

    @property
    def phase_energy_reduction(self) -> float:
        """Mean Phase-Adaptive energy reduction vs. the synchronous row."""
        return self._mean("phase_energy_reduction")


@dataclass(slots=True)
class SensitivityReport:
    """The full sensitivity surface over a workload set."""

    workloads: list[str]
    baseline: list[WorkloadComparison]
    points: list[SensitivityPoint]

    @property
    def baseline_program_improvement(self) -> float:
        """Mean jitter-free Program-Adaptive improvement (the Figure 6 bar)."""
        if not self.baseline:
            return 0.0
        return sum(row.program_improvement for row in self.baseline) / len(self.baseline)

    @property
    def baseline_phase_improvement(self) -> float:
        """Mean jitter-free Phase-Adaptive improvement (the Figure 6 bar)."""
        if not self.baseline:
            return 0.0
        return sum(row.phase_improvement for row in self.baseline) / len(self.baseline)

    def points_for(self, axis: str) -> list[SensitivityPoint]:
        """The grid points of one axis, in sweep order."""
        return [point for point in self.points if point.axis == axis]

    @property
    def baseline_program_energy_reduction(self) -> float:
        """Mean jitter-free Program-Adaptive energy reduction."""
        if not self.baseline:
            return 0.0
        return sum(row.program_energy_reduction for row in self.baseline) / len(
            self.baseline
        )

    @property
    def baseline_phase_energy_reduction(self) -> float:
        """Mean jitter-free Phase-Adaptive energy reduction."""
        if not self.baseline:
            return 0.0
        return sum(row.phase_energy_reduction for row in self.baseline) / len(
            self.baseline
        )

    def render(self) -> str:
        """Plain-text summary table (means across the workload set)."""
        rows: list[tuple[object, ...]] = [
            (
                "baseline",
                "-",
                f"{self.baseline_program_improvement * 100:+.1f}%",
                f"{self.baseline_phase_improvement * 100:+.1f}%",
                "-",
                "-",
                f"{self.baseline_program_energy_reduction * 100:+.1f}%",
                f"{self.baseline_phase_energy_reduction * 100:+.1f}%",
            )
        ]
        for point in self.points:
            rows.append(
                (
                    point.axis,
                    f"{point.value:g}",
                    f"{point.program_improvement * 100:+.1f}%",
                    f"{point.phase_improvement * 100:+.1f}%",
                    f"{point.program_delta * 100:+.2f}pp",
                    f"{point.phase_delta * 100:+.2f}pp",
                    f"{point.program_energy_reduction * 100:+.1f}%",
                    f"{point.phase_energy_reduction * 100:+.1f}%",
                )
            )
        return format_table(
            (
                "axis",
                "value",
                "program",
                "phase",
                "d-program",
                "d-phase",
                "E-program",
                "E-phase",
            ),
            rows,
        )


def _vary(job: SimulationJob, axis: str, value: float) -> SimulationJob:
    """*job* with the knob of one grid point moved to *value*.

    Each axis is named after the field it sets (a :class:`SimulationJob`
    field, or for the hysteresis axes an ``AdaptiveControlParams`` one),
    except the interval scale, which multiplies the job's resolved interval.
    The controller knobs exist only on the phase-adaptive machine, so they
    leave any other job as it is; the engine then serves it from the
    baseline's cached result rather than re-simulating it.  The changed job
    is rebuilt by :func:`dataclasses.replace`, so an out-of-range value
    raises :class:`ValueError` naming the knob.
    """
    if axis in (AXIS_JITTER, AXIS_SYNC_WINDOW):
        return replace(job, **{axis: value})
    if not job.phase_adaptive:
        return job
    if axis != AXIS_INTERVAL:
        return replace(job, control_overrides={axis: value})
    if not value > 0:  # NaN fails too
        raise ValueError(f"{AXIS_INTERVAL} must be positive, got {value:g}")
    interval = job.resolved_control().interval_instructions
    return replace(
        job, control_overrides={"interval_instructions": max(100, round(interval * value))}
    )


def _phase_grid(
    profiles: Sequence[WorkloadProfile],
    grids: Sequence[Sequence[float]],
    run: Mapping[str, int | None],
) -> tuple[list[SensitivityPoint], list[SimulationJob]]:
    """The grid points and each point's Phase-Adaptive job per profile.

    *grids* holds one value sequence per axis, in :data:`AXES` order.  These
    jobs do not depend on the baseline, so they are built first and a bad
    grid value fails before anything is simulated.
    """
    points = [
        SensitivityPoint(axis=axis, value=value)
        for axis, values in zip(AXES, grids)
        for value in values
    ]
    jobs = [
        _vary(phase_adaptive_job(profile, **run), point.axis, point.value)
        for point in points
        for profile in profiles
    ]
    return points, jobs


def sensitivity_sweep(
    profiles: Sequence[WorkloadProfile],
    *,
    jitter_fractions: Sequence[float] = DEFAULT_JITTER_FRACTIONS,
    sync_window_fractions: Sequence[float] = DEFAULT_SYNC_WINDOW_FRACTIONS,
    interval_scales: Sequence[float] = DEFAULT_INTERVAL_SCALES,
    cache_hysteresis_values: Sequence[float] = DEFAULT_CACHE_HYSTERESIS,
    queue_hysteresis_values: Sequence[float] = DEFAULT_QUEUE_HYSTERESIS,
    search_mode: str = "factored",
    window: int | None = None,
    warmup: int | None = None,
    trace_seed: int = DEFAULT_TRACE_SEED,
    seed: int = 0,
    engine: ExperimentEngine | None = None,
) -> SensitivityReport:
    """Sweep the timing-uncertainty and controller knobs over *profiles*.

    Runs the jitter-free Figure 6 comparison first (fixing each workload's
    Program-Adaptive winner), then evaluates every grid point against those
    rows: the Program-Adaptive machine re-runs at the *same* winning indices
    under the knob, and the Phase-Adaptive machine re-runs with its
    controllers under the knob.  Improvements are always measured against the
    jitter-free synchronous baseline row, so each point's ``*_delta`` is the
    movement of the Figure 6 result attributable to that knob alone.

    Pass empty sequences to drop an axis.  All grid jobs are submitted as a
    single engine batch.  A grid value out of its knob's range raises
    :class:`ValueError` naming the knob before anything is simulated.
    """
    eng = engine if engine is not None else default_engine()
    profiles = list(profiles)
    run = dict(window=window, warmup=warmup, trace_seed=trace_seed, seed=seed)
    points, phase_jobs = _phase_grid(
        profiles,
        (
            jitter_fractions,
            sync_window_fractions,
            interval_scales,
            cache_hysteresis_values,
            queue_hysteresis_values,
        ),
        run,
    )
    baseline = compare_workloads(profiles, search_mode=search_mode, engine=eng, **run)

    jobs: list[SimulationJob] = []
    phase_iter = iter(phase_jobs)
    for point in points:
        for profile, row in zip(profiles, baseline):
            program_job = program_adaptive_job(profile, row.program_best_indices, **run)
            jobs.append(_vary(program_job, point.axis, point.value))
            jobs.append(next(phase_iter))
    results = eng.run_all(jobs)

    cursor = 0
    for point in points:
        for profile, row in zip(profiles, baseline):
            program_result = results[cursor]
            phase_result = results[cursor + 1]
            cursor += 2
            program_improvement = program_result.improvement_over(row.synchronous)
            phase_improvement = phase_result.improvement_over(row.synchronous)
            point.per_workload.append(
                WorkloadSensitivity(
                    workload=profile.name,
                    program_improvement=program_improvement,
                    phase_improvement=phase_improvement,
                    program_delta=program_improvement - row.program_improvement,
                    phase_delta=phase_improvement - row.phase_improvement,
                    # The baseline row's report is memoised on the row, so
                    # the grid only prices each fresh MCD result once.
                    program_energy_reduction=energy_reduction(
                        row.energy_report_for("synchronous"), program_result
                    ),
                    phase_energy_reduction=energy_reduction(
                        row.energy_report_for("synchronous"), phase_result
                    ),
                )
            )

    return SensitivityReport(
        workloads=[profile.name for profile in profiles],
        baseline=baseline,
        points=points,
    )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

#: Workloads used when the CLI is given none: an instruction-bound code, a
#: memory-bound code and a strongly phased application.
DEFAULT_CLI_WORKLOADS = ("gcc", "em3d", "apsi")


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.analysis.sensitivity`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.sensitivity",
        description="Sweep the timing-uncertainty knobs and report Figure 6 deltas.",
    )
    parser.add_argument(
        "--workloads",
        nargs="+",
        default=list(DEFAULT_CLI_WORKLOADS),
        help=f"workload names (default: {' '.join(DEFAULT_CLI_WORKLOADS)})",
    )
    parser.add_argument(
        "--jitter",
        nargs="*",
        type=float,
        default=None,
        help=f"jitter-fraction grid (default: {DEFAULT_JITTER_FRACTIONS})",
    )
    parser.add_argument(
        "--sync-window",
        nargs="*",
        type=float,
        default=None,
        help=f"sync-window-fraction grid (default: {DEFAULT_SYNC_WINDOW_FRACTIONS})",
    )
    parser.add_argument(
        "--interval-scale",
        nargs="*",
        type=float,
        default=None,
        help=f"adaptation-interval scale grid (default: {DEFAULT_INTERVAL_SCALES})",
    )
    parser.add_argument(
        "--cache-hysteresis",
        nargs="*",
        type=float,
        default=None,
        help=f"cache-hysteresis grid (default: {DEFAULT_CACHE_HYSTERESIS})",
    )
    parser.add_argument(
        "--queue-hysteresis",
        nargs="*",
        type=float,
        default=None,
        help=f"queue-hysteresis grid (default: {DEFAULT_QUEUE_HYSTERESIS})",
    )
    parser.add_argument("--window", type=int, default=None, help="measured window")
    parser.add_argument("--warmup", type=int, default=None, help="warm-up instructions")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small windows and a reduced grid (CI-sized)",
    )
    parser.add_argument(
        "--workers",
        default="1",
        help='worker processes ("auto" = one per core; default 1)',
    )
    parser.add_argument(
        "--cache-dir", default=None, help="persistent on-disk result cache directory"
    )
    return parser


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    return build_parser().parse_args(argv)


def _grid(
    explicit: Sequence[float] | None, fallback: Sequence[float]
) -> Sequence[float]:
    return explicit if explicit is not None else fallback


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    An unknown workload or a bad worker count, window, warm-up or grid value
    prints one ``error:`` line and exits 2 before anything is simulated.
    """
    from repro.workloads import get_workload

    args = _parse_args(argv)

    window, warmup = args.window, args.warmup
    defaults = QUICK_GRIDS if args.quick else FULL_GRIDS
    if args.quick:
        window = window if window is not None else QUICK_WINDOW
        warmup = warmup if warmup is not None else QUICK_WARMUP
    grids: Mapping[str, Sequence[float]] = {
        "jitter_fractions": _grid(args.jitter, defaults["jitter_fractions"]),
        "sync_window_fractions": _grid(
            args.sync_window, defaults["sync_window_fractions"]
        ),
        "interval_scales": _grid(args.interval_scale, defaults["interval_scales"]),
        "cache_hysteresis_values": _grid(
            args.cache_hysteresis, defaults["cache_hysteresis_values"]
        ),
        "queue_hysteresis_values": _grid(
            args.queue_hysteresis, defaults["queue_hysteresis_values"]
        ),
    }
    try:
        profiles = [get_workload(name) for name in args.workloads]
        workers = parse_workers(args.workers)
        if window is not None and window < 1:
            raise ValueError(f"--window must be at least 1, got {window}")
        if warmup is not None and warmup < 0:
            raise ValueError(f"--warmup must not be negative, got {warmup}")
        _phase_grid(profiles, list(grids.values()), {"window": window, "warmup": warmup})
    except (KeyError, ValueError) as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2

    engine = make_engine(workers=workers, cache_dir=args.cache_dir)
    report = sensitivity_sweep(
        profiles, window=window, warmup=warmup, engine=engine, **grids
    )
    print(
        f"Sensitivity over {', '.join(report.workloads)} "
        f"({len(report.points)} grid points; "
        f"{engine.stats.simulations} simulations, "
        f"{engine.stats.cache_hits} cache hits)"
    )
    print()
    print("Jitter-free Figure 6 baseline:")
    print(improvement_table(report.baseline))
    print()
    print("Sensitivity surface (means over the workloads):")
    print(report.render())
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI smoke job
    raise SystemExit(run_cli(main))
