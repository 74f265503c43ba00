"""Tests for the activity-based energy accounting subsystem.

Covers the geometry energy model, the frequency-voltage table, the
per-structure/per-domain report, counter-conservation invariants of the new
activity fields, and round-trips of the extended ``RunResult`` schema
(including old-schema payloads recorded before the energy subsystem).
"""

from __future__ import annotations

import json

import pytest

from golden_digests import TIMING_DIGEST_FIELDS
from repro.analysis.hardware_cost import main as hardware_cost_main
from repro.analysis.metrics import RunResult
from repro.analysis.reporting import energy_table
from repro.core import AdaptiveConfigIndices
from repro.energy import (
    EnergyParams,
    cache_access_energy_nj,
    cache_leakage_mw,
    ed2p_improvement,
    edp_improvement,
    energy_reduction,
    energy_report,
    voltage_for_frequency,
    voltage_scale,
    ways_activated,
)
from repro.energy.params import FREQUENCY_VOLTAGE_TABLE_GHZ_V, NOMINAL_VOLTAGE_V
from repro.engine import SimulationJob, SpecKind, make_engine, run_job
from repro.timing.cacti import CacheGeometry
from repro.timing.tables import ADAPTIVE_DCACHE_CONFIGS
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def phase_result() -> RunResult:
    return run_job(
        SimulationJob(
            profile=get_workload("gcc"),
            spec_kind=SpecKind.BASE_ADAPTIVE,
            use_b_partitions=True,
            phase_adaptive=True,
            window=1_500,
            warmup=1_000,
        )
    )


@pytest.fixture(scope="module")
def synchronous_result() -> RunResult:
    return run_job(
        SimulationJob(
            profile=get_workload("gcc"),
            spec_kind=SpecKind.BEST_SYNCHRONOUS,
            window=1_500,
            warmup=1_000,
        )
    )


@pytest.fixture(scope="module")
def program_result() -> RunResult:
    return run_job(
        SimulationJob(
            profile=get_workload("gcc"),
            spec_kind=SpecKind.ADAPTIVE,
            indices=AdaptiveConfigIndices(),
            use_b_partitions=False,
            window=1_500,
            warmup=1_000,
        )
    )


class TestCacheAccessEnergy:
    def test_zero_way_probe_is_free(self):
        geometry = ADAPTIVE_DCACHE_CONFIGS[-1].l1
        assert cache_access_energy_nj(geometry, 0) == 0.0

    def test_energy_grows_with_ways_activated(self):
        geometry = ADAPTIVE_DCACHE_CONFIGS[-1].l1
        energies = [
            cache_access_energy_nj(geometry, ways)
            for ways in range(1, geometry.associativity + 1)
        ]
        assert all(low < high for low, high in zip(energies, energies[1:]))

    def test_energy_grows_with_capacity(self):
        small = CacheGeometry(size_kb=32, associativity=1, sub_banks=8)
        large = CacheGeometry(size_kb=256, associativity=1, sub_banks=8)
        assert cache_access_energy_nj(small, 1) < cache_access_energy_nj(large, 1)

    def test_a_part_access_cheaper_than_full_array(self):
        # The adaptive machine's point: probing a one-way A partition costs
        # far less than a full 8-way access of the same physical array.
        geometry = ADAPTIVE_DCACHE_CONFIGS[-1].l1
        a_part = cache_access_energy_nj(geometry, 1)
        full = cache_access_energy_nj(geometry, geometry.associativity)
        assert a_part < full / 2

    def test_each_configuration_gets_distinct_energies(self):
        geometry = ADAPTIVE_DCACHE_CONFIGS[-1].l1
        a_energies = {
            config.ways: cache_access_energy_nj(geometry, config.ways)
            for config in ADAPTIVE_DCACHE_CONFIGS
        }
        assert len(set(a_energies.values())) == len(a_energies)

    def test_ways_activated_split(self):
        geometry = ADAPTIVE_DCACHE_CONFIGS[-1].l1
        for a_ways in range(1, geometry.associativity + 1):
            a = ways_activated(geometry, a_ways, b_probe=False)
            b = ways_activated(geometry, a_ways, b_probe=True)
            assert a == a_ways
            assert a + b == geometry.associativity

    def test_invalid_ways_rejected(self):
        geometry = ADAPTIVE_DCACHE_CONFIGS[0].l1
        with pytest.raises(ValueError):
            cache_access_energy_nj(geometry, geometry.associativity + 1)
        with pytest.raises(ValueError):
            ways_activated(geometry, 0, b_probe=False)

    def test_leakage_scales_with_capacity(self):
        assert cache_leakage_mw(64) == pytest.approx(2 * cache_leakage_mw(32))
        with pytest.raises(ValueError):
            cache_leakage_mw(-1)


class TestVoltageTable:
    def test_monotonic_and_clamped(self):
        frequencies = [0.1, 0.5, 0.9, 1.1, 1.3, 1.6, 1.9, 2.0, 3.0]
        voltages = [voltage_for_frequency(f) for f in frequencies]
        assert all(low <= high for low, high in zip(voltages, voltages[1:]))
        assert voltages[0] == FREQUENCY_VOLTAGE_TABLE_GHZ_V[0][1]
        assert voltages[-1] == FREQUENCY_VOLTAGE_TABLE_GHZ_V[-1][1]

    def test_table_points_are_exact(self):
        for frequency, voltage in FREQUENCY_VOLTAGE_TABLE_GHZ_V:
            assert voltage_for_frequency(frequency) == pytest.approx(voltage)

    def test_scale_is_quadratic_in_voltage(self):
        frequency = 1.4
        ratio = voltage_for_frequency(frequency) / NOMINAL_VOLTAGE_V
        assert voltage_scale(frequency) == pytest.approx(ratio * ratio)


class TestEnergyReport:
    def test_totals_are_structure_sums(self, phase_result):
        report = energy_report(phase_result)
        assert report.total_nj == pytest.approx(
            sum(entry.total_nj for entry in report.structures)
        )
        assert report.total_nj == pytest.approx(report.dynamic_nj + report.leakage_nj)
        assert report.total_nj > 0
        assert report.leakage_nj > 0

    def test_domain_breakdown_sums_to_total(self, phase_result):
        report = energy_report(phase_result)
        domains = report.by_domain()
        assert sum(bucket["total_nj"] for bucket in domains.values()) == pytest.approx(
            report.total_nj
        )
        for domain in ("front_end", "integer", "floating_point", "load_store"):
            assert domain in domains

    def test_ed_metrics(self, phase_result):
        report = energy_report(phase_result)
        assert report.edp_js == pytest.approx(report.energy_joules * report.delay_seconds)
        assert report.ed2p_js2 == pytest.approx(
            report.energy_joules * report.delay_seconds**2
        )
        assert report.energy_per_instruction_nj == pytest.approx(
            report.total_nj / phase_result.committed_instructions
        )

    def test_control_overhead_only_on_phase_adaptive(
        self, phase_result, synchronous_result, program_result
    ):
        phase_report = energy_report(phase_result)
        assert phase_report.structure("adaptive_control").dynamic_nj > 0
        for result in (synchronous_result, program_result):
            report = energy_report(result)
            with pytest.raises(KeyError):
                report.structure("adaptive_control")

    def test_render_mentions_metrics(self, phase_result):
        rendered = energy_report(phase_result).render()
        assert "ED^2" in rendered
        assert "nJ/instruction" in rendered
        assert "dcache" in rendered

    def test_comparative_metrics_are_consistent(self, synchronous_result, phase_result):
        base = energy_report(synchronous_result)
        cand = energy_report(phase_result)
        assert energy_reduction(synchronous_result, phase_result) == pytest.approx(
            1.0 - cand.total_nj / base.total_nj
        )
        assert edp_improvement(base, cand) == pytest.approx(
            base.edp_js / cand.edp_js - 1.0
        )
        assert ed2p_improvement(base, cand) == pytest.approx(
            base.ed2p_js2 / cand.ed2p_js2 - 1.0
        )

    def test_custom_params_change_the_answer(self, synchronous_result):
        default = energy_report(synchronous_result)
        doubled = energy_report(
            synchronous_result, params=EnergyParams(memory_access_nj=18.0)
        )
        assert doubled.structure("memory").dynamic_nj == pytest.approx(
            2 * default.structure("memory").dynamic_nj
        )

    def test_pre_energy_schema_degrades_gracefully(self, synchronous_result):
        # A result recorded before the subsystem existed: timing fields only.
        data = synchronous_result.to_dict()
        old = RunResult.from_dict({name: data[name] for name in TIMING_DIGEST_FIELDS})
        report = energy_report(old)
        assert report.total_nj > 0  # clock trees still counted
        assert report.structure("dcache").dynamic_nj == 0.0


class TestCounterConservation:
    def test_data_accesses_partition_into_hits_and_misses(self, phase_result):
        result = phase_result
        assert result.loads + result.stores == (
            result.l1d_hits_a + result.l1d_hits_b + result.l1d_misses
        )

    def test_icache_accesses_bounded_by_fetches(self, phase_result):
        # One I-cache probe per fetched block, plus one per miss (the missing
        # instruction is pushed back and re-fetched after the refill).
        result = phase_result
        assert 0 < result.icache_accesses <= result.fetched + result.icache_misses
        assert result.icache_b_hits + result.icache_misses <= result.icache_accesses

    def test_sync_penalties_bounded_by_transfers(self, phase_result):
        assert 0 <= phase_result.sync_penalties <= phase_result.sync_transfers

    def test_dispatch_counters_are_consistent(self, phase_result):
        result = phase_result
        assert (
            result.int_queue_dispatches + result.fp_queue_dispatches
            == result.rob_dispatches
        )
        assert result.rob_dispatches >= result.committed_instructions
        assert result.int_queue_issues <= result.int_queue_dispatches
        assert result.fp_queue_issues <= result.fp_queue_dispatches
        assert result.int_regfile_writes + result.fp_regfile_writes <= result.rob_dispatches

    def test_lsq_and_execution_counters(self, phase_result):
        result = phase_result
        performed = result.loads + result.stores + result.loads_forwarded
        assert performed <= result.lsq_allocations
        assert result.int_alu_ops + result.int_complex_ops >= result.int_queue_issues
        assert result.memory_accesses <= result.l2_misses + 1

    def test_access_profile_covers_every_data_access(
        self, phase_result, program_result
    ):
        # With B partitions enabled the histogram counts A probes plus the
        # fallback B probes; with them disabled it is exactly the A accesses.
        phase_profile = phase_result.cache_access_profile["l1d"]
        assert sum(phase_profile.values()) >= phase_result.loads + phase_result.stores
        program_profile = program_result.cache_access_profile["l1d"]
        assert (
            sum(program_profile.values())
            == program_result.loads + program_result.stores
        )

    def test_adaptive_records_physical_geometry(self, phase_result, synchronous_result):
        physical = ADAPTIVE_DCACHE_CONFIGS[-1]
        assert phase_result.cache_geometries["l1d"]["size_kb"] == physical.l1.size_kb
        assert (
            phase_result.cache_geometries["l1d"]["associativity"]
            == physical.l1.associativity
        )
        # The synchronous machine prices (and leaks) only its configured cache.
        assert synchronous_result.cache_geometries["l1d"]["size_kb"] == 32
        assert synchronous_result.cache_geometries["l1d"]["associativity"] == 1


class TestRunResultRoundTrip:
    def test_every_field_survives_json(self, phase_result):
        rebuilt = RunResult.from_dict(json.loads(json.dumps(phase_result.to_dict())))
        assert rebuilt == phase_result

    def test_old_schema_payload_still_deserialises(self, phase_result):
        data = phase_result.to_dict()
        old = RunResult.from_dict({name: data[name] for name in TIMING_DIGEST_FIELDS})
        assert old.execution_time_ps == phase_result.execution_time_ps
        assert old.phase_adaptive is False
        assert old.cache_access_profile == {}
        assert old.structure_entries == {}

    def test_disk_cache_round_trips_energy_fields(self, tmp_path):
        job = SimulationJob(
            profile=get_workload("gcc"),
            spec_kind=SpecKind.BEST_SYNCHRONOUS,
            window=800,
            warmup=500,
        )
        first_engine = make_engine(workers=1, cache_dir=tmp_path)
        fresh = first_engine.run(job)
        second_engine = make_engine(workers=1, cache_dir=tmp_path)
        cached = second_engine.run(job)
        assert second_engine.stats.simulations == 0
        assert cached == fresh
        assert energy_report(cached).total_nj == pytest.approx(
            energy_report(fresh).total_nj
        )


class TestEnergyColumns:
    def test_energy_table_renders(self, synchronous_result, phase_result, program_result):
        from repro.analysis.sweep import WorkloadComparison

        row = WorkloadComparison(
            workload="gcc",
            synchronous=synchronous_result,
            program_adaptive=program_result,
            phase_adaptive=phase_result,
            program_best_indices=AdaptiveConfigIndices(),
        )
        rendered = energy_table([row])
        assert "dE phase" in rendered
        assert "gcc" in rendered
        assert row.phase_energy_reduction == pytest.approx(
            energy_reduction(synchronous_result, phase_result)
        )
        assert row.program_edp_improvement == pytest.approx(
            edp_improvement(synchronous_result, program_result)
        )


class TestHardwareCostCLI:
    def test_main_renders_table4(self, capsys):
        assert hardware_cost_main([]) == 0
        output = capsys.readouterr().out
        assert "4647" in output
        assert "MRU and hit counters" in output
        assert "ILP tracker storage" in output
