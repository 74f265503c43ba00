"""The campaign driver: scenario set × machine styles through the engine.

A campaign expands every scenario into the paper's three machines — the
best-overall **synchronous** baseline, the searched **Program-Adaptive** MCD
machine and the controller-driven **Phase-Adaptive** MCD machine — as
:class:`~repro.engine.SimulationJob` batches, reusing the engine-batched
Figure 6 driver (:func:`repro.analysis.sweep.compare_workloads`) so the whole
matrix is submitted at once: a parallel executor sees every job, duplicates
are simulated once and a persistent result cache turns a re-run into pure
cache hits.

On top of the speedup and energy columns every comparison already carries,
campaign rows add the *controller-behaviour* columns that make the
adversarial families legible: true reconfiguration counts per structure
(configuration records that merely confirm the current choice are not
counted) and the synchronisation penalties the phase-adaptive run paid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.analysis.metrics import RunResult
from repro.analysis.reporting import format_table
from repro.analysis.sweep import WorkloadComparison, compare_workloads, comparison_jobs
from repro.core.configuration import AdaptiveConfigIndices
from repro.core.controllers.params import AdaptiveControlParams
from repro.engine import (
    DEFAULT_TRACE_SEED,
    ExperimentEngine,
    SimulationJob,
    default_engine,
)
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "MACHINE_STYLES",
    "CampaignResult",
    "CampaignRow",
    "campaign_jobs",
    "count_reconfigurations",
    "run_campaign",
]

#: The three machine styles every scenario is evaluated under.
MACHINE_STYLES = ("synchronous", "program_adaptive", "phase_adaptive")


def _initial_configuration_index() -> dict[str, int]:
    """Configuration every phase-adaptive structure starts in.

    The phase-adaptive machine boots in the base adaptive configuration —
    ``AdaptiveConfigIndices()`` — so the starting point is derived from those
    defaults rather than restated here (queue records carry the new queue
    *size* as their index).
    """
    base = AdaptiveConfigIndices()
    return {
        "dcache": base.dcache_index,
        "icache": base.icache_index,
        "int-queue": base.int_queue_size,
        "fp-queue": base.fp_queue_size,
    }


def count_reconfigurations(result: RunResult) -> dict[str, int]:
    """Controller-commanded configuration transitions per structure.

    The processor records a configuration decision for the cache structures
    every interval, *including* decisions that keep the current
    configuration; only transitions — a record whose configuration index
    differs from the structure's previous (or initial, base) configuration —
    are counted.  Almost all of these are actual (PLL-relock costing)
    reconfigurations; the one exception is a change commanded while the
    domain is still locking a previous change, which the processor records
    without applying — indistinguishable in the record stream, so the count
    is strictly the controller's commanded transitions (an upper bound on
    relocks paid).
    """
    counts: dict[str, int] = {}
    last_index = _initial_configuration_index()
    for change in result.configuration_changes:
        previous = last_index.get(change.structure)
        if previous is not None and previous != change.index:
            counts[change.structure] = counts.get(change.structure, 0) + 1
        last_index[change.structure] = change.index
    return counts


@dataclass(slots=True)
class CampaignRow:
    """One scenario's three-machine outcome plus controller behaviour."""

    scenario: ScenarioSpec
    comparison: WorkloadComparison

    @property
    def program_improvement(self) -> float:
        """Program-Adaptive speedup over the synchronous baseline."""
        return self.comparison.program_improvement

    @property
    def phase_improvement(self) -> float:
        """Phase-Adaptive speedup over the synchronous baseline."""
        return self.comparison.phase_improvement

    @property
    def reconfigurations(self) -> dict[str, int]:
        """Commanded configuration transitions per structure (phase run)."""
        return count_reconfigurations(self.comparison.phase_adaptive)

    @property
    def cache_reconfigurations(self) -> int:
        """D/L2 plus I-cache reconfigurations of the phase-adaptive run."""
        counts = self.reconfigurations
        return counts.get("dcache", 0) + counts.get("icache", 0)

    @property
    def queue_reconfigurations(self) -> int:
        """Issue-queue resizings of the phase-adaptive run."""
        counts = self.reconfigurations
        return counts.get("int-queue", 0) + counts.get("fp-queue", 0)

    @property
    def sync_penalties(self) -> int:
        """Synchronisation penalties paid by the phase-adaptive run."""
        return self.comparison.phase_adaptive.sync_penalties

    @property
    def sync_transfers(self) -> int:
        """Cross-domain transfers made by the phase-adaptive run."""
        return self.comparison.phase_adaptive.sync_transfers

    def to_dict(self) -> dict[str, Any]:
        """Plain-data summary row (for ``--json`` and downstream tooling)."""
        comparison = self.comparison
        return {
            "scenario": self.scenario.name,
            "family": self.scenario.family,
            "base": self.scenario.base,
            "phases": len(self.scenario.phases),
            "phase_program_length": self.scenario.phase_program_length,
            "program_best_indices": comparison.program_best_indices.describe(),
            "program_improvement": comparison.program_improvement,
            "phase_improvement": comparison.phase_improvement,
            "program_energy_reduction": comparison.program_energy_reduction,
            "phase_energy_reduction": comparison.phase_energy_reduction,
            "phase_edp_improvement": comparison.phase_edp_improvement,
            "phase_ed2p_improvement": comparison.phase_ed2p_improvement,
            "cache_reconfigurations": self.cache_reconfigurations,
            "queue_reconfigurations": self.queue_reconfigurations,
            "sync_transfers": self.sync_transfers,
            "sync_penalties": self.sync_penalties,
        }


@dataclass(slots=True)
class CampaignResult:
    """A finished campaign: one row per scenario plus run accounting."""

    rows: list[CampaignRow]
    parameters: dict[str, Any] = field(default_factory=dict)
    simulations: int = 0
    cache_hits: int = 0
    batch_duplicates: int = 0

    def row_for(self, scenario_name: str) -> CampaignRow:
        """The row of one scenario (KeyError when absent)."""
        for row in self.rows:
            if row.scenario.name == scenario_name:
                return row
        raise KeyError(f"no campaign row for scenario {scenario_name!r}")

    @property
    def mean_program_improvement(self) -> float:
        """Arithmetic-mean Program-Adaptive improvement across scenarios."""
        if not self.rows:
            return 0.0
        return sum(row.program_improvement for row in self.rows) / len(self.rows)

    @property
    def mean_phase_improvement(self) -> float:
        """Arithmetic-mean Phase-Adaptive improvement across scenarios."""
        if not self.rows:
            return 0.0
        return sum(row.phase_improvement for row in self.rows) / len(self.rows)

    def render(self) -> str:
        """The campaign matrix as a plain-text table."""
        table_rows: list[tuple[object, ...]] = []
        for row in self.rows:
            comparison = row.comparison
            table_rows.append(
                (
                    row.scenario.name,
                    row.scenario.family,
                    f"{comparison.program_improvement * 100:+.1f}%",
                    f"{comparison.phase_improvement * 100:+.1f}%",
                    f"{comparison.phase_energy_reduction * 100:+.1f}%",
                    f"{comparison.phase_edp_improvement * 100:+.1f}%",
                    f"{comparison.phase_ed2p_improvement * 100:+.1f}%",
                    f"{row.cache_reconfigurations}c/{row.queue_reconfigurations}q",
                    row.sync_penalties,
                )
            )
        table_rows.append(
            (
                "mean",
                "-",
                f"{self.mean_program_improvement * 100:+.1f}%",
                f"{self.mean_phase_improvement * 100:+.1f}%",
                "-",
                "-",
                "-",
                "-",
                "-",
            )
        )
        return format_table(
            (
                "scenario",
                "family",
                "program",
                "phase",
                "dE phase",
                "dED phase",
                "dED^2 phase",
                "reconf",
                "sync-pen",
            ),
            table_rows,
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form of the whole campaign."""
        return {
            "parameters": dict(self.parameters),
            "simulations": self.simulations,
            "cache_hits": self.cache_hits,
            "batch_duplicates": self.batch_duplicates,
            "machine_styles": list(MACHINE_STYLES),
            "rows": [row.to_dict() for row in self.rows],
        }


def campaign_jobs(
    scenarios: Sequence[ScenarioSpec],
    *,
    search_mode: str = "factored",
    window: int | None = None,
    warmup: int | None = None,
    control: AdaptiveControlParams | None = None,
    trace_seed: int = DEFAULT_TRACE_SEED,
    seed: int = 0,
    control_overrides: Mapping[str, Any] | None = None,
) -> list[SimulationJob]:
    """The statically enumerable job list of a campaign over *scenarios*.

    Exactly the first (and overwhelmingly largest) batch
    :func:`run_campaign` submits — synchronous baseline, Phase-Adaptive run
    and every Program-Adaptive search candidate, per scenario.
    ``matrix --resume`` counts how much of this list its store already
    holds; the result-dependent tail (the factored search's combined
    winners) cannot be planned up front.  Parameters mirror
    :func:`run_campaign` so the count and the run plan the identical list.
    """
    profiles = [scenario.build_profile() for scenario in scenarios]
    return comparison_jobs(
        profiles,
        search_mode=search_mode,
        window=window,
        warmup=warmup,
        control=control,
        trace_seed=trace_seed,
        seed=seed,
        control_overrides=control_overrides,
    )


def run_campaign(
    scenarios: Sequence[ScenarioSpec],
    *,
    search_mode: str = "factored",
    window: int | None = None,
    warmup: int | None = None,
    control: AdaptiveControlParams | None = None,
    trace_seed: int = DEFAULT_TRACE_SEED,
    seed: int = 0,
    control_overrides: Mapping[str, Any] | None = None,
    engine: ExperimentEngine | None = None,
) -> CampaignResult:
    """Run the scenario × machine-style matrix through the engine.

    Every scenario is materialised as its profile and submitted through
    :func:`~repro.analysis.sweep.compare_workloads`, so the full matrix —
    synchronous baseline, every Program-Adaptive search candidate and the
    Phase-Adaptive run, for every scenario — reaches the engine as one batch.
    ``window``/``warmup`` of ``None`` use each scenario's own defaults;
    passing explicit values (the quick matrix does) scales every scenario
    uniformly.  Engine accounting (fresh simulations vs. cache hits) is
    measured across the call, so a campaign re-run against a warm persistent
    cache reports zero simulations.
    """
    scenarios = list(scenarios)
    names = [scenario.name for scenario in scenarios]
    if len(set(names)) != len(names):
        raise ValueError("campaign scenarios must have unique names")
    eng = engine if engine is not None else default_engine()

    before_simulations = eng.stats.simulations
    before_hits = eng.stats.cache_hits
    before_duplicates = eng.stats.batch_duplicates

    profiles = [scenario.build_profile() for scenario in scenarios]
    comparisons = compare_workloads(
        profiles,
        search_mode=search_mode,
        window=window,
        warmup=warmup,
        control=control,
        trace_seed=trace_seed,
        seed=seed,
        control_overrides=control_overrides,
        engine=eng,
    )

    rows = [
        CampaignRow(scenario=scenario, comparison=comparison)
        for scenario, comparison in zip(scenarios, comparisons)
    ]
    return CampaignResult(
        rows=rows,
        parameters={
            "scenarios": names,
            "search_mode": search_mode,
            "window": window,
            "warmup": warmup,
            "trace_seed": trace_seed,
            "seed": seed,
        },
        simulations=eng.stats.simulations - before_simulations,
        cache_hits=eng.stats.cache_hits - before_hits,
        batch_duplicates=eng.stats.batch_duplicates - before_duplicates,
    )
