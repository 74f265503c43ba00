"""The benchmark's workloads: what each one plans, compiles and drives.

Every workload is one closed-loop batch from a single client: the benchmark
submits the whole experiment to one serial ``ExperimentEngine`` with a fresh
in-memory result cache, waits for it to finish, and only then starts the
next repeat.  Nothing here starts a process or a thread.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.analysis.sensitivity import sensitivity_sweep
from repro.analysis.sweep import compare_workloads, run_phase_adaptive, run_synchronous
from repro.engine import DEFAULT_TRACE_SEED, ExperimentEngine, default_warmup
from repro.scenarios import SCENARIO_WINDOW, get_scenario
from repro.workloads import WorkloadProfile, get_workload
from repro.workloads.trace_cache import (
    DEFAULT_CACHE_TRACES,
    CompiledTrace,
    cached_trace,
    clear_trace_cache,
)

#: Trace rows compiled past warm-up + window: a job's fetch runs ahead of its
#: last measured commit by at most the ROB, the fetch queue and one fetch
#: group (under 300 rows on every machine in the repository).
TRACE_SLACK = 1024


@dataclass(frozen=True)
class Seeds:
    """The two seeds every job of a workload runs with."""

    trace_seed: int
    seed: int

    @classmethod
    def from_arg(cls, value: int) -> "Seeds":
        """Seeds for ``--seed value``; 0 gives the repository default (1234, 0)."""
        return cls(trace_seed=DEFAULT_TRACE_SEED + value, seed=value)


@dataclass(frozen=True)
class Workload:
    """One named experiment, sized by its window and warm-up.

    ``warmup=None`` keeps each profile's default warm-up.  ``drive`` submits
    the experiment to an engine and returns every Phase-Adaptive run-time
    improvement over the synchronous baseline that the experiment reports.
    """

    name: str
    sources: tuple[str, ...]
    load_profile: Callable[[str], WorkloadProfile]
    window: int
    warmup: int | None
    drive: Callable[["Workload", list[WorkloadProfile], Seeds, ExperimentEngine], list[float]]

    def consumption(self, profile: WorkloadProfile) -> int:
        """Trace rows a job of this workload reads from *profile*'s trace."""
        warmup = self.warmup if self.warmup is not None else default_warmup(profile, self.window)
        return warmup + self.window + TRACE_SLACK


@dataclass
class Plan:
    """A planned workload: its profiles and the traces compiled for them."""

    profiles: list[WorkloadProfile]
    traces: list[CompiledTrace]
    lengths: list[int]
    compile_s: float

    def traces_unchanged(self, seeds: Seeds) -> bool:
        """True when timed work compiled no trace row and evicted no trace."""
        return all(
            cached_trace(profile, seed=seeds.trace_seed).compiled is trace
            and trace.length == length
            for profile, trace, length in zip(self.profiles, self.traces, self.lengths)
        )


def plan(workload: Workload, seeds: Seeds) -> Plan:
    """Build *workload*'s profiles and compile each trace as far as its jobs read."""
    clear_trace_cache()
    profiles = [workload.load_profile(name) for name in workload.sources]
    if len(profiles) > DEFAULT_CACHE_TRACES:
        raise ValueError(
            f"{workload.name} needs {len(profiles)} traces; the trace cache keeps "
            f"{DEFAULT_CACHE_TRACES}, so timed jobs would recompile evicted ones"
        )
    started = time.perf_counter()
    traces = []
    for profile in profiles:
        compiled = cached_trace(profile, seed=seeds.trace_seed).compiled
        compiled.ensure(workload.consumption(profile))
        traces.append(compiled)
    compile_s = time.perf_counter() - started
    return Plan(profiles, traces, [trace.length for trace in traces], compile_s)


def _scenario_profile(name: str) -> WorkloadProfile:
    return get_scenario(name).build_profile()


def _drive_figure6(
    workload: Workload, profiles: list[WorkloadProfile], seeds: Seeds, engine: ExperimentEngine
) -> list[float]:
    rows = compare_workloads(
        profiles,
        search_mode="factored",
        window=workload.window,
        warmup=workload.warmup,
        trace_seed=seeds.trace_seed,
        seed=seeds.seed,
        engine=engine,
    )
    return [row.phase_improvement for row in rows]


def _drive_scenarios(
    workload: Workload, profiles: list[WorkloadProfile], seeds: Seeds, engine: ExperimentEngine
) -> list[float]:
    gains = []
    for profile in profiles:
        options = dict(
            window=workload.window,
            warmup=workload.warmup,
            trace_seed=seeds.trace_seed,
            seed=seeds.seed,
            engine=engine,
        )
        baseline = run_synchronous(profile, **options)
        gains.append(run_phase_adaptive(profile, **options).improvement_over(baseline))
    return gains


def _drive_jitter(
    workload: Workload, profiles: list[WorkloadProfile], seeds: Seeds, engine: ExperimentEngine
) -> list[float]:
    report = sensitivity_sweep(
        profiles,
        jitter_fractions=(0.05,),
        sync_window_fractions=(),
        interval_scales=(),
        cache_hysteresis_values=(),
        queue_hysteresis_values=(),
        search_mode="factored",
        window=workload.window,
        warmup=workload.warmup,
        trace_seed=seeds.trace_seed,
        seed=seeds.seed,
        engine=engine,
    )
    gains = [row.phase_improvement for row in report.baseline]
    gains.extend(cell.phase_improvement for point in report.points for cell in point.per_workload)
    return gains


#: The workloads, keyed by name.  Why each was chosen is in README.md.
WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # The headline Figure 6 comparison as 62 short jobs: per-job fixed
        # costs show, the jittered clock path does no work.
        Workload(
            name="fig6-quick",
            sources=("gcc", "em3d", "adpcm_encode", "apsi"),
            load_profile=get_workload,
            window=2_000,
            warmup=3_000,
            drive=_drive_figure6,
        ),
        # Eight long jobs at the window the scenario library is paced for:
        # the controllers act, warm-up and trace compilation are large.
        Workload(
            name="scenarios-calibrated",
            sources=(
                "adv-period-4x-interval",
                "paper-apsi-capacity",
                "adv-hysteresis-outside-queue",
                "paper-em3d-membound",
            ),
            load_profile=_scenario_profile,
            window=SCENARIO_WINDOW,
            warmup=None,
            drive=_drive_scenarios,
        ),
        # The timing-uncertainty experiment along the jitter axis only: its
        # four jittered jobs dominate, so the jittered clock path does.
        Workload(
            name="jitter-sensitivity",
            sources=("gcc", "em3d"),
            load_profile=get_workload,
            window=2_000,
            warmup=3_000,
            drive=_drive_jitter,
        ),
    )
}
