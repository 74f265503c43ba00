"""Run records and derived performance metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Iterable, Mapping

from repro.clocks.time import Picoseconds


@dataclass(frozen=True, slots=True)
class ConfigurationChange:
    """One adaptation event recorded during a phase-adaptive run."""

    committed_instructions: int
    time_ps: Picoseconds
    domain: str
    structure: str
    configuration: str
    index: int

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form for the result cache's JSON files."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ConfigurationChange":
        """Rebuild an adaptation event from :meth:`to_dict` output."""
        return cls(**data)


@dataclass(slots=True)
class RunResult:
    """Everything measured during one simulation run.

    Every field carries a digest classification — ``timing`` (hashed by
    ``result_digest``; frozen set), ``energy`` (hashed by ``energy_digest``),
    ``excluded`` or ``process-dependent`` — recorded in
    ``src/repro/checks/snapshots/digest_fields.json``.  Adding a field
    without classifying it there (and bumping ``FINGERPRINT_VERSION``) fails
    ``python -m repro.checks``: an unclassified counter would land in the
    energy digest by default and, if its value depends on how the run was
    simulated, silently fork digests between hosts.
    """

    workload: str
    machine: str
    style: str
    committed_instructions: int
    execution_time_ps: Picoseconds
    domain_cycles: dict[str, int] = field(default_factory=dict)
    final_frequencies_ghz: dict[str, float] = field(default_factory=dict)

    branch_predictions: int = 0
    branch_mispredictions: int = 0

    icache_accesses: int = 0
    icache_b_hits: int = 0
    icache_misses: int = 0

    loads: int = 0
    stores: int = 0
    l1d_hits_a: int = 0
    l1d_hits_b: int = 0
    l1d_misses: int = 0
    l2_hits_a: int = 0
    l2_hits_b: int = 0
    l2_misses: int = 0
    memory_accesses: int = 0
    loads_forwarded: int = 0

    sync_transfers: int = 0
    sync_penalties: int = 0

    fetch_stall_cycles: int = 0
    branch_stall_cycles: int = 0

    int_queue_average_occupancy: float = 0.0
    fp_queue_average_occupancy: float = 0.0

    configuration_changes: list[ConfigurationChange] = field(default_factory=list)

    # Activity counters and structural sizes consumed by the energy model
    # (:mod:`repro.energy`).  All default so run records serialised before
    # these fields existed still deserialise; the accounting behind them is
    # observation-only, so they never influence simulated timing.
    phase_adaptive: bool = False
    fetched: int = 0
    rob_dispatches: int = 0
    int_queue_dispatches: int = 0
    fp_queue_dispatches: int = 0
    int_queue_issues: int = 0
    fp_queue_issues: int = 0
    int_queue_occupancy_cycles: int = 0
    fp_queue_occupancy_cycles: int = 0
    int_queue_operand_reads: int = 0
    fp_queue_operand_reads: int = 0
    int_regfile_writes: int = 0
    fp_regfile_writes: int = 0
    int_alu_ops: int = 0
    int_complex_ops: int = 0
    fp_alu_ops: int = 0
    fp_complex_ops: int = 0
    lsq_allocations: int = 0
    #: Physical geometry per cache ("l1i"/"l1d"/"l2" -> size_kb,
    #: associativity, sub_banks, block_bytes), as priced by the energy model.
    cache_geometries: dict[str, dict[str, int]] = field(default_factory=dict)
    #: Probe-width histogram per cache: ways activated (as a string key, for
    #: lossless JSON round-trips) -> probe count.
    cache_access_profile: dict[str, dict[str, int]] = field(default_factory=dict)
    #: Leakage-relevant entry counts of the non-cache storage structures.
    structure_entries: dict[str, int] = field(default_factory=dict)
    predictor_size_kb: float = 0.0

    # Simulator fast-path observability (how the run was *simulated*, not
    # what the machine did): idle clock edges of all four domains consumed
    # by the work-horizon skip, and fetches served from pre-compiled trace
    # columns.  Defaulted so old-schema JSON still deserialises, excluded
    # from equality (``compare=False``) so a run is the same result however
    # it was accelerated, and excluded from both result digests.
    horizon_skipped_edges: int = field(default=0, compare=False)
    compiled_trace_cache_hits: int = field(default=0, compare=False)

    #: Observability fields whose values depend on *per-process* state (the
    #: trace-compilation cache is warm for the second job on a trace, cold
    #: for the first) rather than on the job alone.  The result cache resets
    #: them to their defaults when persisting, so on-disk stores are
    #: byte-identical however the job list was split across runs — the
    #: property the cold-versus-resumed store ``diff -r`` check rests on.
    PROCESS_DEPENDENT_FIELDS: ClassVar[tuple[str, ...]] = (
        "compiled_trace_cache_hits",
    )

    # ------------------------------------------------------------ derived

    @property
    def execution_time_us(self) -> float:
        """Execution time in microseconds."""
        return self.execution_time_ps / 1e6

    @property
    def execution_time_ns(self) -> float:
        """Execution time in nanoseconds."""
        return self.execution_time_ps / 1e3

    @property
    def instructions_per_second(self) -> float:
        """Committed instructions per second of simulated time."""
        if self.execution_time_ps <= 0:
            return 0.0
        return self.committed_instructions / (self.execution_time_ps * 1e-12)

    @property
    def front_end_ipc(self) -> float:
        """Committed instructions per front-end cycle."""
        cycles = self.domain_cycles.get("front_end", 0)
        if not cycles:
            return 0.0
        return self.committed_instructions / cycles

    @property
    def branch_misprediction_rate(self) -> float:
        """Mispredictions per executed branch."""
        if not self.branch_predictions:
            return 0.0
        return self.branch_mispredictions / self.branch_predictions

    @property
    def l1d_miss_rate(self) -> float:
        """L1-D misses per data access."""
        accesses = self.loads + self.stores
        if not accesses:
            return 0.0
        return self.l1d_misses / accesses

    @property
    def icache_miss_rate(self) -> float:
        """L1-I misses per instruction-cache access."""
        if not self.icache_accesses:
            return 0.0
        return self.icache_misses / self.icache_accesses

    def improvement_over(self, baseline: "RunResult") -> float:
        """Run-time improvement relative to *baseline* (positive = faster).

        Defined, as in the paper's Figure 6, as the relative reduction in run
        time expressed as a speedup: ``baseline_time / this_time - 1``.
        """
        return relative_improvement(baseline, self)

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form of the run, losslessly JSON-serialisable.

        Used by the experiment engine's on-disk result cache; round-trips
        through :meth:`from_dict` to an equal :class:`RunResult`.
        """
        data: dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "configuration_changes":
                value = [change.to_dict() for change in value]
            elif isinstance(value, dict):
                value = {
                    key: dict(item) if isinstance(item, dict) else item
                    for key, item in value.items()
                }
            data[spec.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        """Rebuild a run record from :meth:`to_dict` output."""
        payload = dict(data)
        payload["configuration_changes"] = [
            ConfigurationChange.from_dict(change)
            for change in payload.get("configuration_changes", [])
        ]
        return cls(**payload)

    def summary(self) -> str:
        """Readable multi-line summary of the run."""
        lines = [
            f"workload={self.workload} machine={self.machine}",
            f"  committed={self.committed_instructions} "
            f"time={self.execution_time_us:.3f}us ipc={self.front_end_ipc:.2f}",
            f"  branches: {self.branch_predictions} "
            f"(mispredict rate {self.branch_misprediction_rate:.3f})",
            f"  L1D miss rate {self.l1d_miss_rate:.3f}, "
            f"I-cache miss rate {self.icache_miss_rate:.3f}, "
            f"memory accesses {self.memory_accesses}",
            f"  adaptations: {len(self.configuration_changes)}",
        ]
        return "\n".join(lines)


def relative_improvement(baseline: RunResult, candidate: RunResult) -> float:
    """Performance improvement of *candidate* over *baseline*.

    Uses run-time ratio minus one, which is how the paper reports the
    Program-Adaptive and Phase-Adaptive gains in Figure 6.
    """
    if candidate.execution_time_ps <= 0:
        raise ValueError("candidate run has non-positive execution time")
    if baseline.committed_instructions != candidate.committed_instructions:
        # Normalise to time per instruction when the windows differ slightly
        # (e.g. a finite trace ended early).
        baseline_tpi = baseline.execution_time_ps / max(1, baseline.committed_instructions)
        candidate_tpi = candidate.execution_time_ps / max(1, candidate.committed_instructions)
        return baseline_tpi / candidate_tpi - 1.0
    return baseline.execution_time_ps / candidate.execution_time_ps - 1.0


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of ``1 + value`` minus one (for averaging improvements)."""
    values = list(values)
    if not values:
        return 0.0
    product = 0.0
    for value in values:
        if value <= -1.0:
            raise ValueError("improvement values must be greater than -100%")
        product += math.log1p(value)
    return math.expm1(product / len(values))
