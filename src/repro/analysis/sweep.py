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

This module provides runners for each, and the Program-Adaptive search in
*exhaustive* and *factored* modes.  The factored mode sweeps one structure
at a time around the base configuration and then combines the per-structure
winners; in this model the structures live in different clock domains and
interact only weakly, so the factored search finds the same winner at a
small fraction of the cost.  The exhaustive mode is retained for fidelity
(the scenario CLI's ``--search-mode`` and the design-space example's
``--mode``).

All simulation goes through the :mod:`repro.engine` subsystem: every runner
builds :class:`~repro.engine.SimulationJob` descriptions and submits them to
an :class:`~repro.engine.ExperimentEngine`, so candidate batches can execute
on worker processes and identical (machine, workload, seed) combinations are
served from the result cache instead of being re-simulated.  Pass ``engine=``
to control placement and caching; the default is the process-wide engine
(serial, in-memory cache) configured in :mod:`repro.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from repro.core.controllers.params import AdaptiveControlParams
from repro.engine import (
    DEFAULT_TRACE_SEED,
    ExperimentEngine,
    SimulationJob,
    SpecKind,
    default_control_params,
    default_engine,
    default_warmup,
    make_trace,
)
from repro.timing.tables import ADAPTIVE_DCACHE_CONFIGS, ADAPTIVE_ICACHE_CONFIGS, ISSUE_QUEUE_SIZES
from repro.workloads.characteristics import WorkloadProfile

__all__ = [
    "DEFAULT_TRACE_SEED",
    "SweepResult",
    "WorkloadComparison",
    "average_improvements",
    "compare_workload",
    "compare_workloads",
    "comparison_jobs",
    "default_control_params",
    "default_warmup",
    "make_trace",
    "program_adaptive_search",
    "run_phase_adaptive",
    "run_program_adaptive",
    "run_synchronous",
]


@dataclass(slots=True)
class SweepResult:
    """Outcome of a per-workload configuration search."""

    workload: str
    best_indices: AdaptiveConfigIndices
    best_result: RunResult
    evaluated: dict[str, RunResult] = field(default_factory=dict)

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
# Job construction
# ---------------------------------------------------------------------------


def _resolve_engine(engine: ExperimentEngine | None) -> ExperimentEngine:
    return engine if engine is not None else default_engine()


def _synchronous_job(
    profile: WorkloadProfile,
    indices: AdaptiveConfigIndices | None,
    *,
    window: int | None,
    warmup: int | None,
    trace_seed: int,
    seed: int,
    jitter_fraction: float = 0.0,
    sync_window_fraction: float | None = None,
) -> SimulationJob:
    return SimulationJob(
        profile=profile,
        spec_kind=SpecKind.BEST_SYNCHRONOUS if indices is None else SpecKind.SYNCHRONOUS,
        indices=indices,
        window=window,
        warmup=warmup,
        trace_seed=trace_seed,
        seed=seed,
        jitter_fraction=jitter_fraction,
        sync_window_fraction=sync_window_fraction,
    )


def _program_adaptive_job(
    profile: WorkloadProfile,
    indices: AdaptiveConfigIndices,
    *,
    window: int | None,
    warmup: int | None,
    trace_seed: int,
    seed: int,
    jitter_fraction: float = 0.0,
    sync_window_fraction: float | None = None,
) -> SimulationJob:
    # Whole-program runs use only the A partitions: a miss in A goes straight
    # to the next level of the hierarchy, as in the paper.
    return SimulationJob(
        profile=profile,
        spec_kind=SpecKind.ADAPTIVE,
        indices=indices,
        use_b_partitions=False,
        window=window,
        warmup=warmup,
        trace_seed=trace_seed,
        seed=seed,
        jitter_fraction=jitter_fraction,
        sync_window_fraction=sync_window_fraction,
    )


def _phase_adaptive_job(
    profile: WorkloadProfile,
    *,
    window: int | None,
    warmup: int | None,
    control: AdaptiveControlParams | None,
    trace_seed: int,
    seed: int,
    jitter_fraction: float = 0.0,
    sync_window_fraction: float | None = None,
    control_overrides: Mapping[str, Any] | None = None,
) -> SimulationJob:
    return SimulationJob(
        profile=profile,
        spec_kind=SpecKind.BASE_ADAPTIVE,
        use_b_partitions=True,
        window=window,
        warmup=warmup,
        trace_seed=trace_seed,
        phase_adaptive=True,
        control=control,
        seed=seed,
        jitter_fraction=jitter_fraction,
        sync_window_fraction=sync_window_fraction,
        control_overrides=control_overrides,
    )


# ---------------------------------------------------------------------------
# Single-machine runners
# ---------------------------------------------------------------------------


def run_synchronous(
    profile: WorkloadProfile,
    indices: AdaptiveConfigIndices | None = None,
    *,
    window: int | None = None,
    warmup: int | None = None,
    trace_seed: int = DEFAULT_TRACE_SEED,
    seed: int = 0,
    jitter_fraction: float = 0.0,
    sync_window_fraction: float | None = None,
    engine: ExperimentEngine | None = None,
) -> RunResult:
    """Simulate *profile* on a fully synchronous machine.

    Without *indices* the paper's best-overall synchronous configuration is
    used (64 KB direct-mapped I-cache, 32 KB/256 KB direct-mapped D/L2 and
    16-entry issue queues).
    """
    job = _synchronous_job(
        profile,
        indices,
        window=window,
        warmup=warmup,
        trace_seed=trace_seed,
        seed=seed,
        jitter_fraction=jitter_fraction,
        sync_window_fraction=sync_window_fraction,
    )
    return _resolve_engine(engine).run(job)


def run_program_adaptive(
    profile: WorkloadProfile,
    indices: AdaptiveConfigIndices,
    *,
    window: int | None = None,
    warmup: int | None = None,
    trace_seed: int = DEFAULT_TRACE_SEED,
    seed: int = 0,
    jitter_fraction: float = 0.0,
    sync_window_fraction: float | None = None,
    engine: ExperimentEngine | None = None,
) -> RunResult:
    """Simulate *profile* on the adaptive MCD machine fixed at *indices*.

    As in the paper's whole-program experiments, only the A partitions are
    used: a miss in A goes straight to the next level of the hierarchy.
    """
    job = _program_adaptive_job(
        profile,
        indices,
        window=window,
        warmup=warmup,
        trace_seed=trace_seed,
        seed=seed,
        jitter_fraction=jitter_fraction,
        sync_window_fraction=sync_window_fraction,
    )
    return _resolve_engine(engine).run(job)


def run_phase_adaptive(
    profile: WorkloadProfile,
    *,
    window: int | None = None,
    warmup: int | None = None,
    control: AdaptiveControlParams | None = None,
    trace_seed: int = DEFAULT_TRACE_SEED,
    seed: int = 0,
    jitter_fraction: float = 0.0,
    sync_window_fraction: float | None = None,
    control_overrides: Mapping[str, Any] | None = None,
    engine: ExperimentEngine | None = None,
) -> RunResult:
    """Simulate *profile* on the phase-adaptive MCD machine.

    The machine starts in the base (smallest / fastest) configuration with B
    partitions enabled and the hardware controllers active.
    ``control_overrides`` patches individual controller parameters (interval,
    hysteresis, ...) on top of the window-scaled defaults.
    """
    job = _phase_adaptive_job(
        profile,
        window=window,
        warmup=warmup,
        control=control,
        trace_seed=trace_seed,
        seed=seed,
        jitter_fraction=jitter_fraction,
        sync_window_fraction=sync_window_fraction,
        control_overrides=control_overrides,
    )
    return _resolve_engine(engine).run(job)


# ---------------------------------------------------------------------------
# Per-application Program-Adaptive search
# ---------------------------------------------------------------------------


def _factored_candidates() -> list[AdaptiveConfigIndices]:
    """One-structure-at-a-time candidates around the base configuration."""
    candidates: list[AdaptiveConfigIndices] = [AdaptiveConfigIndices()]
    candidates.extend(
        AdaptiveConfigIndices(icache_index=i) for i in range(len(ADAPTIVE_ICACHE_CONFIGS)) if i
    )
    candidates.extend(
        AdaptiveConfigIndices(dcache_index=i) for i in range(len(ADAPTIVE_DCACHE_CONFIGS)) if i
    )
    candidates.extend(
        AdaptiveConfigIndices(int_queue_size=size) for size in ISSUE_QUEUE_SIZES if size != 16
    )
    candidates.extend(
        AdaptiveConfigIndices(fp_queue_size=size) for size in ISSUE_QUEUE_SIZES if size != 16
    )
    return candidates


def _search_candidates(mode: str) -> list[AdaptiveConfigIndices]:
    if mode == "exhaustive":
        candidates = list(adaptive_configuration_space())
    elif mode == "factored":
        candidates = _factored_candidates()
    else:
        raise ValueError(f"unknown search mode {mode!r}")
    # Defensive de-duplication (insertion order preserved) so the engine sees
    # each distinct configuration exactly once per batch.
    return list({c.describe(): c for c in candidates}.values())


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
    the combination — 14-17 simulations instead of 256.  The candidate batch
    is submitted to the engine in one call, so a parallel executor spreads it
    across workers.
    """
    eng = _resolve_engine(engine)
    candidates = _search_candidates(mode)

    def jobs_for(batch: Sequence[AdaptiveConfigIndices]) -> list[SimulationJob]:
        return [
            _program_adaptive_job(
                profile,
                indices,
                window=window,
                warmup=warmup,
                trace_seed=trace_seed,
                seed=seed,
            )
            for indices in batch
        ]

    results = eng.run_all(jobs_for(candidates))
    evaluated = {
        indices.describe(): result for indices, result in zip(candidates, results)
    }

    if mode == "factored":
        combined = _combine_factored_winners(evaluated)
        if combined.describe() not in evaluated:
            evaluated[combined.describe()] = eng.run_all(jobs_for([combined]))[0]

    best_key = min(evaluated, key=lambda key: evaluated[key].execution_time_ps)
    return SweepResult(
        workload=profile.name,
        best_indices=_indices_from_key(best_key),
        best_result=evaluated[best_key],
        evaluated=evaluated,
    )


def _indices_from_key(key: str) -> AdaptiveConfigIndices:
    # Keys look like "ic1/dc2/iq16/fq32".
    return AdaptiveConfigIndices.from_key(key)


def _combine_factored_winners(evaluated: Mapping[str, RunResult]) -> AdaptiveConfigIndices:
    """Combine the best value of each structure found by the factored sweep."""
    base = AdaptiveConfigIndices()

    def best_for(extract, default):
        best_value, best_time = default, None
        for key, result in evaluated.items():
            indices = _indices_from_key(key)
            others_default = (
                (indices.icache_index == base.icache_index or extract is _get_ic),
                (indices.dcache_index == base.dcache_index or extract is _get_dc),
                (indices.int_queue_size == base.int_queue_size or extract is _get_iq),
                (indices.fp_queue_size == base.fp_queue_size or extract is _get_fq),
            )
            if not all(others_default):
                continue
            if best_time is None or result.execution_time_ps < best_time:
                best_time = result.execution_time_ps
                best_value = extract(indices)
        return best_value

    return AdaptiveConfigIndices(
        icache_index=best_for(_get_ic, base.icache_index),
        dcache_index=best_for(_get_dc, base.dcache_index),
        int_queue_size=best_for(_get_iq, base.int_queue_size),
        fp_queue_size=best_for(_get_fq, base.fp_queue_size),
    )


def _get_ic(indices: AdaptiveConfigIndices) -> int:
    return indices.icache_index


def _get_dc(indices: AdaptiveConfigIndices) -> int:
    return indices.dcache_index


def _get_iq(indices: AdaptiveConfigIndices) -> int:
    return indices.int_queue_size


def _get_fq(indices: AdaptiveConfigIndices) -> int:
    return indices.fp_queue_size


# ---------------------------------------------------------------------------
# Figure 6 driver
# ---------------------------------------------------------------------------


def compare_workload(
    profile: WorkloadProfile,
    *,
    baseline_indices: AdaptiveConfigIndices | None = None,
    search_mode: str = "factored",
    window: int | None = None,
    warmup: int | None = None,
    control: AdaptiveControlParams | None = None,
    trace_seed: int = DEFAULT_TRACE_SEED,
    seed: int = 0,
    jitter_fraction: float = 0.0,
    sync_window_fraction: float | None = None,
    control_overrides: Mapping[str, Any] | None = None,
    engine: ExperimentEngine | None = None,
) -> WorkloadComparison:
    """Run the full three-machine comparison for one workload (Figure 6 row)."""
    return compare_workloads(
        [profile],
        baseline_indices=baseline_indices,
        search_mode=search_mode,
        window=window,
        warmup=warmup,
        control=control,
        trace_seed=trace_seed,
        seed=seed,
        jitter_fraction=jitter_fraction,
        sync_window_fraction=sync_window_fraction,
        control_overrides=control_overrides,
        engine=engine,
    )[0]


def comparison_jobs(
    profiles: Sequence[WorkloadProfile],
    *,
    baseline_indices: AdaptiveConfigIndices | None = None,
    search_mode: str = "factored",
    window: int | None = None,
    warmup: int | None = None,
    control: AdaptiveControlParams | None = None,
    trace_seed: int = DEFAULT_TRACE_SEED,
    seed: int = 0,
    jitter_fraction: float = 0.0,
    sync_window_fraction: float | None = None,
    control_overrides: Mapping[str, Any] | None = None,
) -> list[SimulationJob]:
    """The statically enumerable jobs of a Figure 6 comparison batch.

    For every profile: the synchronous baseline, the Phase-Adaptive run and
    every Program-Adaptive search candidate, in the exact order
    :func:`compare_workloads` submits them.  This is the *plannable* part of
    a campaign — what ``matrix --resume`` counts against its store.  The
    factored search's combined-winner jobs depend on these results and so
    cannot be enumerated up front.
    """
    candidates = _search_candidates(search_mode)
    jobs: list[SimulationJob] = []
    for profile in profiles:
        jobs.append(
            _synchronous_job(
                profile,
                baseline_indices,
                window=window,
                warmup=warmup,
                trace_seed=trace_seed,
                seed=seed,
            )
        )
        jobs.append(
            _phase_adaptive_job(
                profile,
                window=window,
                warmup=warmup,
                control=control,
                trace_seed=trace_seed,
                seed=seed,
                jitter_fraction=jitter_fraction,
                sync_window_fraction=sync_window_fraction,
                control_overrides=control_overrides,
            )
        )
        jobs.extend(
            _program_adaptive_job(
                profile,
                indices,
                window=window,
                warmup=warmup,
                trace_seed=trace_seed,
                seed=seed,
                jitter_fraction=jitter_fraction,
                sync_window_fraction=sync_window_fraction,
            )
            for indices in candidates
        )
    return jobs


def compare_workloads(
    profiles: Sequence[WorkloadProfile],
    *,
    baseline_indices: AdaptiveConfigIndices | None = None,
    search_mode: str = "factored",
    window: int | None = None,
    warmup: int | None = None,
    control: AdaptiveControlParams | None = None,
    trace_seed: int = DEFAULT_TRACE_SEED,
    seed: int = 0,
    jitter_fraction: float = 0.0,
    sync_window_fraction: float | None = None,
    control_overrides: Mapping[str, Any] | None = None,
    engine: ExperimentEngine | None = None,
) -> list[WorkloadComparison]:
    """Run the Figure 6 comparison for every workload in *profiles*.

    All synchronous baselines, all Program-Adaptive search candidates and all
    Phase-Adaptive runs — across every workload — are submitted to the engine
    as one batch, so a parallel executor sees the full sweep at once.  A
    second, much smaller batch evaluates the factored search's combined
    winners where they were not already simulated.  Results are identical to
    calling :func:`compare_workload` per profile.

    The timing-uncertainty knobs (``jitter_fraction``,
    ``sync_window_fraction``) and the controller overrides apply to the MCD
    machines only: the fully synchronous baseline runs a single global clock
    with inter-domain synchronisation disabled, so the paper models it free
    of inter-domain timing uncertainty.  Improvements under a knob setting
    are therefore measured against the same baseline row as the jitter-free
    experiment, which is what the sensitivity driver reports deltas over.
    """
    eng = _resolve_engine(engine)
    candidates = _search_candidates(search_mode)
    jobs = comparison_jobs(
        profiles,
        baseline_indices=baseline_indices,
        search_mode=search_mode,
        window=window,
        warmup=warmup,
        control=control,
        trace_seed=trace_seed,
        seed=seed,
        jitter_fraction=jitter_fraction,
        sync_window_fraction=sync_window_fraction,
        control_overrides=control_overrides,
    )
    results = eng.run_all(jobs)

    stride = 2 + len(candidates)
    evaluated_per_profile: list[dict[str, RunResult]] = []
    combined_jobs: list[SimulationJob] = []
    combined_slots: list[tuple[int, AdaptiveConfigIndices]] = []
    for row, profile in enumerate(profiles):
        offset = row * stride
        evaluated = {
            indices.describe(): result
            for indices, result in zip(
                candidates, results[offset + 2 : offset + stride]
            )
        }
        evaluated_per_profile.append(evaluated)
        if search_mode == "factored":
            combined = _combine_factored_winners(evaluated)
            if combined.describe() not in evaluated:
                combined_slots.append((row, combined))
                combined_jobs.append(
                    _program_adaptive_job(
                        profile,
                        combined,
                        window=window,
                        warmup=warmup,
                        trace_seed=trace_seed,
                        seed=seed,
                        jitter_fraction=jitter_fraction,
                        sync_window_fraction=sync_window_fraction,
                    )
                )
    for (row, combined), result in zip(combined_slots, eng.run_all(combined_jobs)):
        evaluated_per_profile[row][combined.describe()] = result

    comparisons: list[WorkloadComparison] = []
    for row, profile in enumerate(profiles):
        offset = row * stride
        evaluated = evaluated_per_profile[row]
        best_key = min(evaluated, key=lambda key: evaluated[key].execution_time_ps)
        comparisons.append(
            WorkloadComparison(
                workload=profile.name,
                synchronous=results[offset],
                program_adaptive=evaluated[best_key],
                phase_adaptive=results[offset + 1],
                program_best_indices=_indices_from_key(best_key),
            )
        )
    return comparisons


def average_improvements(comparisons: Iterable[WorkloadComparison]) -> tuple[float, float]:
    """Arithmetic-mean Program- and Phase-Adaptive improvements (Figure 6 bars)."""
    comparisons = list(comparisons)
    if not comparisons:
        return 0.0, 0.0
    program = sum(c.program_improvement for c in comparisons) / len(comparisons)
    phase = sum(c.phase_improvement for c in comparisons) / len(comparisons)
    return program, phase
