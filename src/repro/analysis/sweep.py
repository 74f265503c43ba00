"""Design-space exploration and the Figure 6 experiment drivers.

The paper evaluates three machines per application:

* the best-overall **fully synchronous** processor, which the paper found by
  sweeping 1 024 configurations across the whole suite (this module runs the
  machine it names,
  :func:`~repro.core.configuration.best_overall_synchronous_spec`);
* the **Program-Adaptive** MCD machine, where the best of the 256 adaptive
  configurations is chosen per application by exhaustive offline search; and
* the **Phase-Adaptive** MCD machine, which starts from the base (smallest /
  fastest) configuration and lets the hardware controllers adapt at run time.

Each machine has one recipe that turns a profile into its
:class:`~repro.engine.SimulationJob`: :func:`synchronous_job`,
:func:`program_adaptive_job` and :func:`phase_adaptive_job`.  The drivers
here and in the sensitivity, campaign and traced-run modules build their
jobs through them and take only the window, the warm-up and the seeds; any
other machine (jittered, or with overridden controller parameters) is a
``SimulationJob``, such as a recipe's job with one field changed by
:func:`dataclasses.replace`.

The Program-Adaptive search runs in *exhaustive* and *factored* modes.  The
factored mode sweeps one structure at a time around the base configuration
and then combines the per-structure winners; in this model the structures
live in different clock domains and interact only weakly, so the factored
search finds the same winner at a small fraction of the cost.  The
exhaustive mode is retained for fidelity (the scenario CLI's
``--search-mode`` and the design-space example's ``--mode``).

All simulation goes through the :mod:`repro.engine` subsystem: every runner
submits its jobs to an :class:`~repro.engine.ExperimentEngine`, so candidate
batches can execute on worker processes and identical (machine, workload,
seed) combinations are served from the result cache instead of being
re-simulated.  Pass ``engine=`` to control placement and caching; the
default is the process-wide engine (serial, in-memory cache) configured in
:mod:`repro.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping, Sequence

from repro.analysis.metrics import RunResult, relative_improvement
from repro.energy import (
    EnergyReport,
    ed2p_improvement,
    edp_improvement,
    energy_reduction,
    energy_report,
)
from repro.core.configuration import AdaptiveConfigIndices, adaptive_configuration_space
from repro.engine import (
    DEFAULT_TRACE_SEED,
    ExperimentEngine,
    SimulationJob,
    SpecKind,
    default_engine,
)
from repro.timing.tables import ADAPTIVE_DCACHE_CONFIGS, ADAPTIVE_ICACHE_CONFIGS, ISSUE_QUEUE_SIZES
from repro.workloads.characteristics import WorkloadProfile

__all__ = [
    "SweepResult",
    "WorkloadComparison",
    "average_improvements",
    "compare_workload",
    "compare_workloads",
    "comparison_jobs",
    "phase_adaptive_job",
    "program_adaptive_job",
    "program_adaptive_search",
    "run_phase_adaptive",
    "run_program_adaptive",
    "run_synchronous",
    "synchronous_job",
]


@dataclass(slots=True)
class SweepResult:
    """Outcome of a per-workload configuration search."""

    workload: str
    best_indices: AdaptiveConfigIndices
    best_result: RunResult
    evaluated: dict[AdaptiveConfigIndices, RunResult] = field(default_factory=dict)

    @property
    def configurations_evaluated(self) -> int:
        """Number of simulated configurations."""
        return len(self.evaluated)


@dataclass(slots=True)
class WorkloadComparison:
    """One row of the Figure 6 experiment."""

    workload: str
    synchronous: RunResult
    program_adaptive: RunResult
    phase_adaptive: RunResult
    program_best_indices: AdaptiveConfigIndices
    _energy_reports: dict[str, EnergyReport] = field(
        default_factory=dict, repr=False, compare=False
    )

    def energy_report_for(self, machine: str) -> EnergyReport:
        """Memoised :class:`EnergyReport` of one run.

        *machine* is ``"synchronous"``, ``"program_adaptive"`` or
        ``"phase_adaptive"``; the report is computed once per comparison, so
        the six energy properties and :func:`~repro.analysis.energy_table`
        never redo the per-structure arithmetic.
        """
        report = self._energy_reports.get(machine)
        if report is None:
            report = energy_report(getattr(self, machine))
            self._energy_reports[machine] = report
        return report

    @property
    def program_improvement(self) -> float:
        """Program-Adaptive improvement over the synchronous baseline."""
        return relative_improvement(self.synchronous, self.program_adaptive)

    @property
    def phase_improvement(self) -> float:
        """Phase-Adaptive improvement over the synchronous baseline."""
        return relative_improvement(self.synchronous, self.phase_adaptive)

    # Energy columns (computed from the recorded activity counters; see
    # :mod:`repro.energy`).  Positive reductions mean less energy than the
    # synchronous baseline; positive ED/ED^2 improvements mean a better
    # energy-delay trade-off.

    @property
    def program_energy_reduction(self) -> float:
        """Program-Adaptive energy reduction vs. the synchronous baseline."""
        return energy_reduction(
            self.energy_report_for("synchronous"),
            self.energy_report_for("program_adaptive"),
        )

    @property
    def phase_energy_reduction(self) -> float:
        """Phase-Adaptive energy reduction vs. the synchronous baseline."""
        return energy_reduction(
            self.energy_report_for("synchronous"),
            self.energy_report_for("phase_adaptive"),
        )

    @property
    def program_edp_improvement(self) -> float:
        """Program-Adaptive energy-delay-product improvement."""
        return edp_improvement(
            self.energy_report_for("synchronous"),
            self.energy_report_for("program_adaptive"),
        )

    @property
    def phase_edp_improvement(self) -> float:
        """Phase-Adaptive energy-delay-product improvement."""
        return edp_improvement(
            self.energy_report_for("synchronous"),
            self.energy_report_for("phase_adaptive"),
        )

    @property
    def program_ed2p_improvement(self) -> float:
        """Program-Adaptive energy-delay-squared improvement."""
        return ed2p_improvement(
            self.energy_report_for("synchronous"),
            self.energy_report_for("program_adaptive"),
        )

    @property
    def phase_ed2p_improvement(self) -> float:
        """Phase-Adaptive energy-delay-squared improvement."""
        return ed2p_improvement(
            self.energy_report_for("synchronous"),
            self.energy_report_for("phase_adaptive"),
        )


# ---------------------------------------------------------------------------
# Job recipes: one per machine
# ---------------------------------------------------------------------------


def synchronous_job(profile: WorkloadProfile, **run: Any) -> SimulationJob:
    """The best-overall fully synchronous machine running *profile*.

    *run* is the window, warm-up and seeds: :class:`SimulationJob`'s
    ``window``, ``warmup``, ``trace_seed`` and ``seed``.
    """
    return SimulationJob(profile=profile, spec_kind=SpecKind.BEST_SYNCHRONOUS, **run)


def program_adaptive_job(
    profile: WorkloadProfile, indices: AdaptiveConfigIndices, **run: Any
) -> SimulationJob:
    """The adaptive MCD machine fixed at *indices* running *profile*.

    Whole-program runs use only the A partitions: a miss in A goes straight
    to the next level of the hierarchy, as in the paper.  *run* is as for
    :func:`synchronous_job`.
    """
    return SimulationJob(
        profile=profile,
        spec_kind=SpecKind.ADAPTIVE,
        indices=indices,
        use_b_partitions=False,
        **run,
    )


def phase_adaptive_job(profile: WorkloadProfile, **run: Any) -> SimulationJob:
    """The phase-adaptive MCD machine running *profile*.

    It starts in the base (smallest / fastest) configuration with B
    partitions enabled and the hardware controllers active, at the
    window-scaled control defaults.  *run* is as for :func:`synchronous_job`.
    """
    return SimulationJob(
        profile=profile,
        spec_kind=SpecKind.BASE_ADAPTIVE,
        use_b_partitions=True,
        phase_adaptive=True,
        **run,
    )


# ---------------------------------------------------------------------------
# Single-machine runners
# ---------------------------------------------------------------------------


def _resolve_engine(engine: ExperimentEngine | None) -> ExperimentEngine:
    return engine if engine is not None else default_engine()


def run_synchronous(
    profile: WorkloadProfile,
    *,
    window: int | None = None,
    warmup: int | None = None,
    trace_seed: int = DEFAULT_TRACE_SEED,
    seed: int = 0,
    engine: ExperimentEngine | None = None,
) -> RunResult:
    """Simulate *profile* on the paper's best-overall synchronous machine.

    That machine has a 64 KB direct-mapped I-cache, 32 KB/256 KB
    direct-mapped D/L2 and 16-entry issue queues.
    """
    job = synchronous_job(profile, window=window, warmup=warmup, trace_seed=trace_seed, seed=seed)
    return _resolve_engine(engine).run(job)


def run_program_adaptive(
    profile: WorkloadProfile,
    indices: AdaptiveConfigIndices,
    *,
    window: int | None = None,
    warmup: int | None = None,
    trace_seed: int = DEFAULT_TRACE_SEED,
    seed: int = 0,
    engine: ExperimentEngine | None = None,
) -> RunResult:
    """Simulate *profile* on the adaptive MCD machine fixed at *indices*."""
    job = program_adaptive_job(
        profile, indices, window=window, warmup=warmup, trace_seed=trace_seed, seed=seed
    )
    return _resolve_engine(engine).run(job)


def run_phase_adaptive(
    profile: WorkloadProfile,
    *,
    window: int | None = None,
    warmup: int | None = None,
    trace_seed: int = DEFAULT_TRACE_SEED,
    seed: int = 0,
    engine: ExperimentEngine | None = None,
) -> RunResult:
    """Simulate *profile* on the phase-adaptive MCD machine."""
    job = phase_adaptive_job(
        profile, window=window, warmup=warmup, trace_seed=trace_seed, seed=seed
    )
    return _resolve_engine(engine).run(job)


# ---------------------------------------------------------------------------
# Per-application Program-Adaptive search
# ---------------------------------------------------------------------------

#: The values each structure takes in the adaptive configuration space.
_STRUCTURE_VALUES: dict[str, Sequence[int]] = {
    "icache_index": range(len(ADAPTIVE_ICACHE_CONFIGS)),
    "dcache_index": range(len(ADAPTIVE_DCACHE_CONFIGS)),
    "int_queue_size": ISSUE_QUEUE_SIZES,
    "fp_queue_size": ISSUE_QUEUE_SIZES,
}


def _search_candidates(mode: str) -> list[AdaptiveConfigIndices]:
    """The configurations a search simulates first, in submission order.

    ``exhaustive`` is all 256.  ``factored`` is the base configuration, then
    every one-structure variation of it, one structure at a time.
    """
    if mode == "exhaustive":
        return list(adaptive_configuration_space())
    if mode != "factored":
        raise ValueError(f"unknown search mode {mode!r}")
    base = AdaptiveConfigIndices()
    return [base] + [
        replace(base, **{name: value})
        for name, values in _STRUCTURE_VALUES.items()
        for value in values
        if value != getattr(base, name)
    ]


def _combine_factored_winners(
    evaluated: Mapping[AdaptiveConfigIndices, RunResult],
) -> AdaptiveConfigIndices:
    """Each structure's fastest value among the runs that vary only it.

    A run counts for a structure when every other structure is at its base
    value, so the base configuration counts for all four.  The first of
    equally fast runs wins, and a structure keeps its base value when no run
    counts for it.
    """
    base = AdaptiveConfigIndices()
    combined = {}
    for name in _STRUCTURE_VALUES:
        value, best_time = getattr(base, name), None
        for indices, result in evaluated.items():
            if replace(indices, **{name: getattr(base, name)}) != base:
                continue  # another structure differs from the base
            if best_time is None or result.execution_time_ps < best_time:
                value, best_time = getattr(indices, name), result.execution_time_ps
        combined[name] = value
    return AdaptiveConfigIndices(**combined)


def _finish_searches(
    engine: ExperimentEngine,
    profiles: Sequence[WorkloadProfile],
    mode: str,
    candidate_results: Sequence[Sequence[RunResult]],
    run: Mapping[str, Any],
) -> list[SweepResult]:
    """Complete one search per profile from its candidates' results.

    The factored winners not yet evaluated are simulated as one batch, and
    each search then takes its fastest configuration (the first on a tie).
    """
    candidates = _search_candidates(mode)
    evaluated = [dict(zip(candidates, results)) for results in candidate_results]
    if mode == "factored":
        missing = [
            (profile, row, combined)
            for profile, row in zip(profiles, evaluated)
            if (combined := _combine_factored_winners(row)) not in row
        ]
        jobs = [program_adaptive_job(profile, combined, **run) for profile, _, combined in missing]
        for (_, row, combined), result in zip(missing, engine.run_all(jobs)):
            row[combined] = result
    searches = []
    for profile, row in zip(profiles, evaluated):
        best = min(row, key=lambda indices: row[indices].execution_time_ps)
        searches.append(SweepResult(profile.name, best, row[best], row))
    return searches


def program_adaptive_search(
    profile: WorkloadProfile,
    *,
    mode: str = "factored",
    window: int | None = None,
    warmup: int | None = None,
    trace_seed: int = DEFAULT_TRACE_SEED,
    seed: int = 0,
    engine: ExperimentEngine | None = None,
) -> SweepResult:
    """Find the best whole-program adaptive MCD configuration for *profile*.

    ``mode="exhaustive"`` evaluates all 256 configurations, as the paper did;
    ``mode="factored"`` (default) sweeps each structure independently around
    the base configuration, combines the per-structure winners, and verifies
    the combination — 13-14 simulations instead of 256.  The candidate batch
    is submitted to the engine in one call, so a parallel executor spreads it
    across workers.
    """
    eng = _resolve_engine(engine)
    run = dict(window=window, warmup=warmup, trace_seed=trace_seed, seed=seed)
    jobs = [program_adaptive_job(profile, indices, **run) for indices in _search_candidates(mode)]
    return _finish_searches(eng, [profile], mode, [eng.run_all(jobs)], run)[0]


# ---------------------------------------------------------------------------
# Figure 6 driver
# ---------------------------------------------------------------------------


def compare_workload(
    profile: WorkloadProfile,
    *,
    search_mode: str = "factored",
    window: int | None = None,
    warmup: int | None = None,
    trace_seed: int = DEFAULT_TRACE_SEED,
    seed: int = 0,
    engine: ExperimentEngine | None = None,
) -> WorkloadComparison:
    """Run the full three-machine comparison for one workload (Figure 6 row)."""
    return compare_workloads(
        [profile],
        search_mode=search_mode,
        window=window,
        warmup=warmup,
        trace_seed=trace_seed,
        seed=seed,
        engine=engine,
    )[0]


def comparison_jobs(
    profiles: Sequence[WorkloadProfile],
    *,
    search_mode: str = "factored",
    window: int | None = None,
    warmup: int | None = None,
    trace_seed: int = DEFAULT_TRACE_SEED,
    seed: int = 0,
) -> list[SimulationJob]:
    """The statically enumerable jobs of a Figure 6 comparison batch.

    For every profile: the synchronous baseline, the Phase-Adaptive run and
    every Program-Adaptive search candidate, in the exact order
    :func:`compare_workloads` submits them.  This is the *plannable* part of
    a campaign — what ``matrix --resume`` counts against its store.  The
    factored search's combined-winner jobs depend on these results and so
    cannot be enumerated up front.
    """
    run = dict(window=window, warmup=warmup, trace_seed=trace_seed, seed=seed)
    candidates = _search_candidates(search_mode)
    jobs: list[SimulationJob] = []
    for profile in profiles:
        jobs.append(synchronous_job(profile, **run))
        jobs.append(phase_adaptive_job(profile, **run))
        jobs.extend(program_adaptive_job(profile, indices, **run) for indices in candidates)
    return jobs


def compare_workloads(
    profiles: Sequence[WorkloadProfile],
    *,
    search_mode: str = "factored",
    window: int | None = None,
    warmup: int | None = None,
    trace_seed: int = DEFAULT_TRACE_SEED,
    seed: int = 0,
    engine: ExperimentEngine | None = None,
) -> list[WorkloadComparison]:
    """Run the Figure 6 comparison for every workload in *profiles*.

    All synchronous baselines, all Program-Adaptive search candidates and all
    Phase-Adaptive runs — across every workload — are submitted to the engine
    as one batch, so a parallel executor sees the full sweep at once.  A
    second, much smaller batch evaluates the factored search's combined
    winners where they were not already simulated.  Results are identical to
    calling :func:`compare_workload` per profile.
    """
    eng = _resolve_engine(engine)
    run = dict(window=window, warmup=warmup, trace_seed=trace_seed, seed=seed)
    results = eng.run_all(comparison_jobs(profiles, search_mode=search_mode, **run))
    stride = 2 + len(_search_candidates(search_mode))
    rows = [results[offset : offset + stride] for offset in range(0, len(results), stride)]
    searches = _finish_searches(eng, profiles, search_mode, [row[2:] for row in rows], run)
    return [
        WorkloadComparison(
            workload=profile.name,
            synchronous=row[0],
            program_adaptive=search.best_result,
            phase_adaptive=row[1],
            program_best_indices=search.best_indices,
        )
        for profile, row, search in zip(profiles, rows, searches)
    ]


def average_improvements(comparisons: Iterable[WorkloadComparison]) -> tuple[float, float]:
    """Arithmetic-mean Program- and Phase-Adaptive improvements (Figure 6 bars)."""
    comparisons = list(comparisons)
    if not comparisons:
        return 0.0, 0.0
    program = sum(c.program_improvement for c in comparisons) / len(comparisons)
    phase = sum(c.phase_improvement for c in comparisons) / len(comparisons)
    return program, phase
