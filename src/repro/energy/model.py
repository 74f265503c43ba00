"""Activity-based energy accounting over a finished :class:`RunResult`.

The simulator records *activity* (accesses, dispatches, issues, clock
edges); this module turns that activity into joules after the fact, which
is what makes the accounting observation-only: a run's timing behaviour is
byte-identical whether or not anyone ever computes its energy.

Dynamic energy is Wattch-style: every counted event costs its per-event
energy (cache probes priced by the geometry model in
:mod:`repro.energy.cacti`, everything else by :class:`EnergyParams`),
scaled by ``(V/Vn)**2`` at the voltage the frequency-voltage table assigns
to the average frequency the structure's clock domain actually ran at —
per-domain clock-tree energy is thus the ``V**2 f`` product integrated over
``domain_cycles``.  Leakage integrates per-structure leakage power over the
run's execution time.  The adaptive-control circuitry (Table 4 gate
inventory plus the ILP-tracker timestamp storage) is charged as an
``adaptive_control`` overhead bucket on phase-adaptive runs only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.analysis.hardware_cost import (
    ilp_tracker_storage_bits,
    total_equivalent_gates,
)
from repro.analysis.metrics import RunResult
from repro.analysis.reporting import format_table
from repro.energy.cacti import cache_access_energy_nj, cache_leakage_mw
from repro.energy.params import DEFAULT_ENERGY_PARAMS, EnergyParams, voltage_scale
from repro.timing.cacti import CacheGeometry

#: Clock domain each cache lives in.
_CACHE_DOMAINS = {"l1i": "front_end", "l1d": "load_store", "l2": "load_store"}

#: Fallback physical issue-queue size for the ILP-tracker storage overhead,
#: used only when a result predates the recorded ``structure_entries``.
_DEFAULT_TRACKER_QUEUE_SIZE = 64


@dataclass(slots=True)
class StructureEnergy:
    """Energy attributed to one storage or logic structure."""

    structure: str
    domain: str
    dynamic_nj: float = 0.0
    leakage_nj: float = 0.0

    @property
    def total_nj(self) -> float:
        """Dynamic plus leakage energy (nJ)."""
        return self.dynamic_nj + self.leakage_nj

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form for JSON payloads and digests."""
        return {
            "structure": self.structure,
            "domain": self.domain,
            "dynamic_nj": self.dynamic_nj,
            "leakage_nj": self.leakage_nj,
        }


@dataclass(slots=True)
class EnergyReport:
    """Per-structure / per-domain energy breakdown of one run."""

    workload: str
    machine: str
    style: str
    phase_adaptive: bool
    committed_instructions: int
    execution_time_ps: int
    structures: list[StructureEnergy] = field(default_factory=list)

    # ------------------------------------------------------------ totals

    @property
    def dynamic_nj(self) -> float:
        """Total dynamic energy (nJ)."""
        return sum(entry.dynamic_nj for entry in self.structures)

    @property
    def leakage_nj(self) -> float:
        """Total leakage energy (nJ)."""
        return sum(entry.leakage_nj for entry in self.structures)

    @property
    def total_nj(self) -> float:
        """Total energy (nJ)."""
        return self.dynamic_nj + self.leakage_nj

    @property
    def energy_joules(self) -> float:
        """Total energy in joules."""
        return self.total_nj * 1e-9

    @property
    def delay_seconds(self) -> float:
        """Execution time in seconds."""
        return self.execution_time_ps * 1e-12

    @property
    def energy_per_instruction_nj(self) -> float:
        """Average energy per committed instruction (nJ)."""
        if not self.committed_instructions:
            return 0.0
        return self.total_nj / self.committed_instructions

    @property
    def edp_js(self) -> float:
        """Energy-delay product (joule-seconds)."""
        return self.energy_joules * self.delay_seconds

    @property
    def ed2p_js2(self) -> float:
        """Energy-delay-squared product (joule-seconds squared)."""
        return self.energy_joules * self.delay_seconds**2

    # ------------------------------------------------------- breakdowns

    def structure(self, name: str) -> StructureEnergy:
        """The named structure's entry (raises ``KeyError`` if absent)."""
        for entry in self.structures:
            if entry.structure == name:
                return entry
        raise KeyError(f"no structure named {name!r} in this report")

    def by_domain(self) -> dict[str, dict[str, float]]:
        """``{domain: {"dynamic_nj": ..., "leakage_nj": ..., "total_nj": ...}}``."""
        domains: dict[str, dict[str, float]] = {}
        for entry in self.structures:
            bucket = domains.setdefault(
                entry.domain, {"dynamic_nj": 0.0, "leakage_nj": 0.0, "total_nj": 0.0}
            )
            bucket["dynamic_nj"] += entry.dynamic_nj
            bucket["leakage_nj"] += entry.leakage_nj
            bucket["total_nj"] += entry.total_nj
        return domains

    # ------------------------------------------------------------- views

    def render(self) -> str:
        """Plain-text per-structure table plus the summary metrics."""
        total = self.total_nj or 1.0
        rows: list[tuple[object, ...]] = [
            (
                entry.structure,
                entry.domain,
                f"{entry.dynamic_nj:.1f}",
                f"{entry.leakage_nj:.1f}",
                f"{entry.total_nj:.1f}",
                f"{entry.total_nj / total * 100:.1f}%",
            )
            for entry in sorted(
                self.structures, key=lambda item: item.total_nj, reverse=True
            )
        ]
        table = format_table(
            ("structure", "domain", "dynamic (nJ)", "leakage (nJ)", "total (nJ)", "share"),
            rows,
        )
        summary = (
            f"total {self.total_nj:.1f} nJ "
            f"({self.dynamic_nj:.1f} dynamic + {self.leakage_nj:.1f} leakage), "
            f"{self.energy_per_instruction_nj:.3f} nJ/instruction, "
            f"ED {self.edp_js:.3e} J*s, ED^2 {self.ed2p_js2:.3e} J*s^2"
        )
        return f"{table}\n{summary}"

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form, losslessly JSON-serialisable."""
        return {
            "workload": self.workload,
            "machine": self.machine,
            "style": self.style,
            "phase_adaptive": self.phase_adaptive,
            "committed_instructions": self.committed_instructions,
            "execution_time_ps": self.execution_time_ps,
            "structures": [entry.to_dict() for entry in self.structures],
        }


# ---------------------------------------------------------------------------
# Computation
# ---------------------------------------------------------------------------


def _domain_frequency_ghz(result: RunResult, domain: str) -> float:
    """Average frequency the domain ran at (GHz), from cycles over time.

    Falls back to the recorded final frequency for degenerate runs (no
    elapsed time or no cycles), and to 1 GHz when even that is missing.
    """
    cycles = result.domain_cycles.get(domain, 0)
    if cycles > 0 and result.execution_time_ps > 0:
        return cycles / result.execution_time_ps * 1e3
    return result.final_frequencies_ghz.get(domain, 1.0)


def _cache_geometry(data: Mapping[str, int]) -> CacheGeometry:
    return CacheGeometry(
        size_kb=int(data["size_kb"]),
        associativity=int(data["associativity"]),
        sub_banks=int(data["sub_banks"]),
        block_bytes=int(data.get("block_bytes", 64)),
    )


def energy_report(
    result: RunResult, *, params: EnergyParams | None = None
) -> EnergyReport:
    """Compute the energy breakdown of *result*.

    Pure arithmetic over the run's recorded activity counters — calling it
    (or not) can never change simulated behaviour.  Results recorded by
    pre-energy versions of the simulator (no activity counters) degrade
    gracefully to clock-tree + whatever counters they do carry.
    """
    p = params if params is not None else DEFAULT_ENERGY_PARAMS
    time_s = result.execution_time_ps * 1e-12
    scales = {
        domain: voltage_scale(_domain_frequency_ghz(result, domain))
        for domain in ("front_end", "integer", "floating_point", "load_store")
    }
    structures: list[StructureEnergy] = []

    def add(structure: str, domain: str, dynamic_nj: float, leakage_mw: float = 0.0) -> None:
        structures.append(
            StructureEnergy(
                structure=structure,
                domain=domain,
                dynamic_nj=dynamic_nj,
                # 1 mW over 1 s is 1e6 nJ.
                leakage_nj=leakage_mw * time_s * 1e6,
            )
        )

    # Caches: each recorded probe width is priced by the geometry model, so
    # every adaptive configuration contributes its own A / A+B access energy.
    for name in ("l1i", "l1d", "l2"):
        domain = _CACHE_DOMAINS[name]
        geometry_data = result.cache_geometries.get(name)
        geometry = _cache_geometry(geometry_data) if geometry_data else None
        dynamic = 0.0
        if geometry is not None:
            profile = result.cache_access_profile.get(name, {})
            dynamic = sum(
                count * cache_access_energy_nj(geometry, int(ways))
                for ways, count in profile.items()
            )
        add(
            {"l1i": "icache", "l1d": "dcache", "l2": "l2"}[name],
            domain,
            dynamic * scales[domain],
            cache_leakage_mw(geometry.size_kb) if geometry is not None else 0.0,
        )

    entries = result.structure_entries
    fe, ls = scales["front_end"], scales["load_store"]

    # Front end.
    add("fetch_decode", "front_end", result.fetched * p.fetch_decode_nj * fe)
    add(
        "branch_predictor",
        "front_end",
        result.branch_predictions * p.predictor_access_nj * fe,
        p.predictor_leakage_mw_per_kb * result.predictor_size_kb,
    )

    # Dispatch / retirement (the ROB is written at dispatch in the front-end
    # domain and read at commit).
    add(
        "rob",
        "front_end",
        (
            result.rob_dispatches * p.rob_write_nj
            + result.committed_instructions * p.rob_commit_nj
        )
        * fe,
        p.rob_leakage_mw_per_entry * entries.get("rob", 0),
    )

    # Issue queues, register files and functional units, per execution domain.
    for prefix, domain in (("int", "integer"), ("fp", "floating_point")):
        scale = scales[domain]
        dispatches = getattr(result, f"{prefix}_queue_dispatches")
        issues = getattr(result, f"{prefix}_queue_issues")
        occupancy_cycles = getattr(result, f"{prefix}_queue_occupancy_cycles")
        add(
            f"{prefix}_queue",
            domain,
            (
                dispatches * p.queue_write_nj
                + occupancy_cycles * p.queue_wakeup_per_entry_cycle_nj
                + issues * p.queue_issue_nj
            )
            * scale,
            p.queue_leakage_mw_per_entry * entries.get(f"{prefix}_queue", 0),
        )
        add(
            f"{prefix}_regfile",
            domain,
            (
                getattr(result, f"{prefix}_regfile_writes") * p.regfile_write_nj
                + getattr(result, f"{prefix}_queue_operand_reads") * p.regfile_read_nj
            )
            * scale,
            p.regfile_leakage_mw_per_entry * entries.get(f"{prefix}_regfile", 0),
        )
        add(
            f"{prefix}_alu",
            domain,
            (
                getattr(result, f"{prefix}_alu_ops") * p.alu_op_nj
                + getattr(result, f"{prefix}_complex_ops") * p.complex_op_nj
            )
            * scale,
        )

    # Load/store queue and off-chip memory.
    searches = result.loads + result.stores + result.loads_forwarded
    add(
        "lsq",
        "load_store",
        (result.lsq_allocations * p.lsq_write_nj + searches * p.lsq_search_nj) * ls,
        p.lsq_leakage_mw_per_entry * entries.get("lsq", 0),
    )
    add("memory", "memory", result.memory_accesses * p.memory_access_nj)

    # Inter-domain synchronisation queues.
    add("sync", "inter_domain", result.sync_transfers * p.sync_transfer_nj)

    # Clock trees: V**2 f integrated over the run, per domain.
    for domain, scale in scales.items():
        cycles = result.domain_cycles.get(domain, 0)
        add(f"clock:{domain}", domain, cycles * p.clock_per_domain_cycle_nj * scale)

    # Adaptive-control overhead: the Table 4 controller gates tick with their
    # structure's domain; the ILP trackers' timestamp storage ticks with the
    # issue domains.  Phase-adaptive runs only — the other machines do not
    # instantiate the control circuitry.
    if result.phase_adaptive:
        controller_gates = total_equivalent_gates()
        dynamic = 0.0
        for domain in ("front_end", "load_store"):
            dynamic += (
                controller_gates
                * result.domain_cycles.get(domain, 0)
                * p.control_gate_cycle_nj
                * scales[domain]
            )
        for prefix, domain in (("int", "integer"), ("fp", "floating_point")):
            # Tracker storage is sized by the recorded physical queue, so
            # this stays in lock-step with what the processor leaks for.
            tracker_bits = ilp_tracker_storage_bits(
                entries.get(f"{prefix}_queue", _DEFAULT_TRACKER_QUEUE_SIZE)
            )
            dynamic += (
                tracker_bits
                * result.domain_cycles.get(domain, 0)
                * p.control_storage_bit_cycle_nj
                * scales[domain]
            )
        add("adaptive_control", "inter_domain", dynamic)

    # Remaining un-itemised core leakage (buses, TLBs, miscellaneous logic).
    add("core_misc", "core", 0.0, p.core_leakage_mw)

    return EnergyReport(
        workload=result.workload,
        machine=result.machine,
        style=result.style,
        phase_adaptive=result.phase_adaptive,
        committed_instructions=result.committed_instructions,
        execution_time_ps=result.execution_time_ps,
        structures=structures,
    )


# ---------------------------------------------------------------------------
# Comparative metrics
# ---------------------------------------------------------------------------


def _as_report(value: RunResult | EnergyReport, params: EnergyParams | None) -> EnergyReport:
    if isinstance(value, EnergyReport):
        return value
    return energy_report(value, params=params)


def energy_reduction(
    baseline: RunResult | EnergyReport,
    candidate: RunResult | EnergyReport,
    *,
    params: EnergyParams | None = None,
) -> float:
    """Fractional energy saved by *candidate* relative to *baseline*.

    Positive means the candidate consumes less energy (the paper's headline
    direction); ``0.25`` is a 25 % reduction.
    """
    base = _as_report(baseline, params)
    cand = _as_report(candidate, params)
    if base.total_nj <= 0:
        raise ValueError("baseline run has non-positive energy")
    return 1.0 - cand.total_nj / base.total_nj


def edp_improvement(
    baseline: RunResult | EnergyReport,
    candidate: RunResult | EnergyReport,
    *,
    params: EnergyParams | None = None,
) -> float:
    """Energy-delay-product improvement (positive = candidate better)."""
    base = _as_report(baseline, params)
    cand = _as_report(candidate, params)
    if cand.edp_js <= 0:
        raise ValueError("candidate run has non-positive energy-delay product")
    return base.edp_js / cand.edp_js - 1.0


def ed2p_improvement(
    baseline: RunResult | EnergyReport,
    candidate: RunResult | EnergyReport,
    *,
    params: EnergyParams | None = None,
) -> float:
    """Energy-delay-squared improvement (positive = candidate better)."""
    base = _as_report(baseline, params)
    cand = _as_report(candidate, params)
    if cand.ed2p_js2 <= 0:
        raise ValueError("candidate run has non-positive ED^2 product")
    return base.ed2p_js2 / cand.ed2p_js2 - 1.0


def energy_reports(
    results: Iterable[RunResult], *, params: EnergyParams | None = None
) -> list[EnergyReport]:
    """Convenience: one report per result, in order."""
    return [energy_report(result, params=params) for result in results]
