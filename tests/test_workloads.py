"""Tests for the synthetic workload substrate and the benchmark suite."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.opcodes import FLAG_BRANCH, FLAG_MEMORY, FLAG_TAKEN, OPCLASSES, OpClass
from repro.isa.registers import NO_REGISTER
from repro.workloads import (
    BENCHMARK_SUITES,
    PhaseSpec,
    SyntheticTraceGenerator,
    WorkloadProfile,
    full_suite,
    get_workload,
    mediabench_suite,
    olden_suite,
    spec2000_suite,
    workload_names,
)
from repro.scenarios.spec import ScenarioSpec
from repro.workloads.generator import CODE_BASE, HOT_DATA_BASE, CompiledTrace
from repro.workloads.phases import (
    burst_schedule,
    bursty_conflict_phases,
    periodic_data_phases,
    periodic_ilp_phases,
    ramp,
    square_wave,
    triangle,
)

from tests.trace_rows import COLUMNS


def rows(profile, count, seed=1234):
    """A fresh trace of *profile* holding its first *count* rows."""
    trace = CompiledTrace(SyntheticTraceGenerator(profile, seed=seed))
    trace.ensure(count)
    return trace


def same_rows(first, second):
    return all(getattr(first, column) == getattr(second, column) for column in COLUMNS)


def memory_addresses(trace, start=0, end=None):
    """The addresses of the memory rows among *trace*'s rows from *start* to
    *end*, in row order."""
    return [
        address
        for bits, address in zip(trace.flags[start:end], trace.address[start:end])
        if bits & FLAG_MEMORY
    ]


class TestWorkloadProfile:
    def test_validation_rejects_bad_mix(self):
        with pytest.raises(ValueError):
            WorkloadProfile(name="x", suite="t", load_fraction=0.7)
        with pytest.raises(ValueError):
            WorkloadProfile(name="x", suite="t", load_fraction=0.5, store_fraction=0.4)

    def test_validation_rejects_bad_footprints(self):
        with pytest.raises(ValueError):
            WorkloadProfile(name="x", suite="t", inner_window_kb=16.0, code_footprint_kb=8.0)
        with pytest.raises(ValueError):
            WorkloadProfile(name="x", suite="t", hot_data_kb=128.0, data_footprint_kb=64.0)

    def test_with_overrides(self):
        profile = WorkloadProfile(name="x", suite="t")
        changed = profile.with_overrides(hot_data_kb=8.0)
        assert changed.hot_data_kb == 8.0
        assert profile.hot_data_kb == 16.0
        with pytest.raises(ValueError):
            profile.with_overrides(nonexistent=1)

    def test_scaled_window(self):
        profile = WorkloadProfile(name="x", suite="t", simulation_window=20_000)
        assert profile.scaled(0.5).simulation_window == 10_000
        assert profile.scaled(1e-9).simulation_window == 1_000
        with pytest.raises(ValueError):
            profile.scaled(0)

    def test_phase_spec_validation(self):
        with pytest.raises(ValueError):
            PhaseSpec(length=0)
        with pytest.raises(ValueError):
            PhaseSpec(length=100, overrides={"block_size": 4})

    def test_is_floating_point(self):
        assert WorkloadProfile(name="x", suite="t", fp_fraction=0.4).is_floating_point
        assert not WorkloadProfile(name="x", suite="t", fp_fraction=0.05).is_floating_point


class TestSuite:
    def test_suite_sizes_match_tables_6_to_8(self):
        assert len(mediabench_suite()) == 16  # 8 applications, encode/decode variants
        assert len(olden_suite()) == 9
        assert len(spec2000_suite()) == 15
        assert len(full_suite()) == 40

    def test_all_names_unique(self):
        names = workload_names()
        assert len(names) == len(set(names))

    def test_get_workload(self):
        assert get_workload("gcc").suite == "SPEC2000-Int"
        with pytest.raises(KeyError):
            get_workload("not-a-benchmark")

    def test_suites_keyed_consistently(self):
        for suite_name, profiles in BENCHMARK_SUITES.items():
            for profile in profiles:
                assert profile.suite == suite_name

    def test_paper_windows_recorded(self):
        assert all(profile.paper_window for profile in full_suite())

    def test_phased_workloads_present(self):
        assert get_workload("apsi").has_phases
        assert get_workload("art").has_phases
        assert get_workload("mst").has_phases

    def test_memory_bound_benchmarks_have_large_working_sets(self):
        for name in ("em3d", "health", "mst", "art"):
            assert get_workload(name).data_footprint_kb >= 1000

    def test_instruction_bound_benchmarks_have_large_code(self):
        for name in ("gsm_encode", "ghostscript", "gcc", "vortex", "crafty"):
            assert get_workload(name).code_footprint_kb > 48

    def test_most_workloads_fit_the_smallest_caches(self):
        """Table 9: about half of the applications prefer the smallest
        configuration, so about half must have small working sets."""
        small_data = sum(1 for p in full_suite() if p.hot_data_kb <= 32)
        small_code = sum(1 for p in full_suite() if p.code_footprint_kb <= 16)
        assert small_data >= len(full_suite()) * 0.4
        assert small_code >= len(full_suite()) * 0.4


class TestPhaseHelpers:
    def test_periodic_data_phases_alternate_capacity(self):
        phases = periodic_data_phases()
        assert len(phases) == 2
        assert phases[0].overrides["hot_data_kb"] < phases[1].overrides["hot_data_kb"]

    def test_periodic_ilp_phases_cycle_distances(self):
        phases = periodic_ilp_phases()
        distances = [p.overrides["mean_dependence_distance"] for p in phases]
        assert distances == sorted(distances)

    def test_bursty_phases_are_asymmetric(self):
        quiet, burst = bursty_conflict_phases()
        assert quiet.length > burst.length


class TestGenerator:
    def test_determinism(self, tiny_profile):
        assert same_rows(rows(tiny_profile, 2000, seed=7), rows(tiny_profile, 2000, seed=7))

    def test_different_seeds_differ(self, tiny_profile):
        first = rows(tiny_profile, 2000, seed=1)
        second = rows(tiny_profile, 2000, seed=2)
        assert first.address != second.address

    def test_instruction_mix_close_to_profile(self):
        profile = WorkloadProfile(
            name="mix", suite="t", load_fraction=0.3, store_fraction=0.1,
            fp_fraction=0.4, simulation_window=1000,
        )
        trace = rows(profile, 30_000, seed=3)
        counts = Counter(OPCLASSES[op] for op in trace.op)
        total = trace.length
        loads = counts[OpClass.LOAD] / total
        stores = counts[OpClass.STORE] / total
        assert abs(loads - 0.3 * (1 - _branch_share(counts, total))) < 0.08
        assert abs(stores - 0.1 * (1 - _branch_share(counts, total))) < 0.05
        fp_ops = sum(counts[op] for op in (OpClass.FP_ALU, OpClass.FP_MULT, OpClass.FP_DIV))
        assert fp_ops > 0

    def test_pcs_stay_within_code_footprint(self, tiny_profile):
        trace = rows(tiny_profile, 5000)
        footprint_bytes = int(tiny_profile.code_footprint_kb * 1024)
        for pc in trace.pc:
            assert CODE_BASE <= pc < CODE_BASE + footprint_bytes

    def test_data_addresses_stay_within_footprint(self, tiny_profile):
        footprint_bytes = int(tiny_profile.data_footprint_kb * 1024)
        for address in memory_addresses(rows(tiny_profile, 5000)):
            assert HOT_DATA_BASE <= address < HOT_DATA_BASE + footprint_bytes + 64

    def test_branches_have_targets_and_memory_ops_addresses(self, tiny_profile):
        trace = rows(tiny_profile, 3000)
        for bits, address, target in zip(trace.flags, trace.address, trace.target):
            assert (target != 0) == bool(bits & FLAG_BRANCH)
            assert (address != 0) == bool(bits & FLAG_MEMORY)

    def test_control_flow_is_consistent(self, tiny_profile):
        """The next instruction's PC must equal the previous instruction's
        architectural next PC (no teleporting in the trace)."""
        trace = rows(tiny_profile, 4000)
        for index in range(1, trace.length):
            previous = index - 1
            if trace.flags[previous] & FLAG_TAKEN:
                expected = trace.target[previous]
            else:
                expected = trace.pc[previous] + 4
            assert trace.pc[index] == expected

    def test_phases_change_generation_parameters(self):
        profile = WorkloadProfile(
            name="phased", suite="t",
            data_footprint_kb=512.0, hot_data_kb=16.0,
            phases=(
                PhaseSpec(length=2000, overrides={"hot_data_kb": 8.0}),
                PhaseSpec(length=2000, overrides={"hot_data_kb": 256.0}),
            ),
        )
        trace = rows(profile, 4000, seed=11)

        def hot_region_share(start, region_kb):
            addresses = memory_addresses(trace, start, start + 2000)
            within = sum(1 for address in addresses if address - HOT_DATA_BASE < region_kb * 1024)
            return within / max(1, len(addresses))

        # Phase one confines its hot accesses to 8 KB; phase two spreads them
        # over 256 KB, so far fewer of its accesses land in the first 8 KB.
        assert hot_region_share(0, 8) > hot_region_share(2000, 8) + 0.2

    def test_larger_dependence_distance_raises_measured_ilp(self):
        serial = WorkloadProfile(name="serial", suite="t", mean_dependence_distance=2.0,
                                 far_dependence_fraction=0.05)
        parallel = WorkloadProfile(name="parallel", suite="t", mean_dependence_distance=25.0,
                                   far_dependence_fraction=0.3)
        assert _dependence_height(serial) > _dependence_height(parallel)

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=15, deadline=None)
    def test_any_seed_produces_valid_instructions(self, seed):
        profile = WorkloadProfile(name="prop", suite="t", simulation_window=1000)
        trace = rows(profile, 400, seed=seed)
        assert all(pc >= CODE_BASE for pc in trace.pc)
        assert all(address % 8 == 0 for address in memory_addresses(trace))


def _branch_share(counts, total):
    return counts[OpClass.BRANCH] / total


def _dependence_height(profile, count=3000):
    """Average dependence-chain height per instruction over a window."""
    trace = rows(profile, count, seed=5)
    timestamps: dict[int, int] = {}
    height_total = 0
    for dest, *sources in zip(trace.dest, trace.src0, trace.src1):
        height = 1 + max((timestamps.get(s, 0) for s in sources if s != NO_REGISTER), default=0)
        if dest != NO_REGISTER:
            timestamps[dest] = height
        height_total += height
    return height_total / count


class TestProfileValidate:
    """Boundaries of WorkloadProfile.validate (the deep, per-phase checker),
    which construction runs."""

    def test_valid_profiles_chain(self, tiny_profile):
        assert tiny_profile.validate() is tiny_profile

    def test_every_suite_profile_validates(self):
        for profile in full_suite():
            profile.validate()

    def test_phase_override_fraction_above_one_rejected(self):
        with pytest.raises(ValueError, match=r"phase 0.*hot_data_fraction"):
            WorkloadProfile(
                name="x",
                suite="t",
                phases=(PhaseSpec(length=100, overrides={"hot_data_fraction": 1.5}),),
            )

    def test_hand_built_profile_with_a_bad_phase_fails_on_construction(self):
        # Before construction checked phases, this profile built and ran.
        with pytest.raises(ValueError, match=r"'x', phase 0: hot_data_fraction"):
            WorkloadProfile(
                name="x",
                suite="y",
                phases=(PhaseSpec(1000, {"hot_data_fraction": 2.0, "load_fraction": 0.9}),),
            )

    def test_phase_override_negative_footprint_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            WorkloadProfile(
                name="x",
                suite="t",
                phases=(PhaseSpec(length=100, overrides={"data_footprint_kb": -1.0}),),
            )

    def test_phase_hot_region_beyond_footprint_rejected(self):
        # The base profile is consistent; only the phase's effective values
        # break the invariant.
        with pytest.raises(ValueError, match="cannot exceed"):
            WorkloadProfile(
                name="x",
                suite="t",
                data_footprint_kb=64.0,
                hot_data_kb=16.0,
                phases=(PhaseSpec(length=100, overrides={"hot_data_kb": 128.0}),),
            )

    def test_phase_memory_mix_overflow_rejected(self):
        with pytest.raises(ValueError, match="no room for compute"):
            WorkloadProfile(
                name="x",
                suite="t",
                phases=(
                    PhaseSpec(
                        length=100,
                        overrides={"load_fraction": 0.6, "store_fraction": 0.5},
                    ),
                ),
            )

    def test_phase_dependence_distance_below_one_rejected(self):
        with pytest.raises(ValueError, match="mean_dependence_distance"):
            WorkloadProfile(
                name="x",
                suite="t",
                phases=(PhaseSpec(length=100, overrides={"mean_dependence_distance": 0.5}),),
            )

    @pytest.mark.parametrize(
        ("build", "context"),
        [
            (
                lambda kb: WorkloadProfile(
                    name="x", suite="t", hot_data_kb=kb, data_footprint_kb=1.0
                ),
                "profile 'x'",
            ),
            (
                lambda kb: ScenarioSpec(
                    name="x",
                    family="t",
                    phases=(PhaseSpec(length=100, overrides={"hot_data_kb": kb}),),
                ).build_profile(),
                "profile 'x', phase 0",
            ),
        ],
        ids=["base", "phase"],
    )
    def test_hot_region_below_one_word_rejected(self, build, context):
        # int(0.0005 * 1024) == 0 bytes would divide by zero in generation.
        with pytest.raises(ValueError, match=rf"{context}: hot_data_kb \(0.0005\)"):
            build(0.0005)
        # Exactly one 8-byte word is the smallest legal hot region.
        assert rows(build(8 / 1024), 2_000, seed=1).length == 2_000

    def test_boundary_values_accepted(self):
        # Exactly-on-the-boundary values are legal: fractions of 0 and 1, a
        # hot region equal to the footprint, distance exactly 1.
        WorkloadProfile(
            name="x",
            suite="t",
            phases=(
                PhaseSpec(
                    length=1,
                    overrides={
                        "hot_data_fraction": 0.0,
                        "sequential_fraction": 1.0,
                        "hot_data_kb": 64.0,
                        "data_footprint_kb": 64.0,
                        "mean_dependence_distance": 1.0,
                    },
                ),
            ),
        ).validate()

    def test_messages_name_the_offending_context(self):
        with pytest.raises(ValueError, match=r"'culprit', phase 1"):
            WorkloadProfile(
                name="culprit",
                suite="t",
                phases=(
                    PhaseSpec(length=100),
                    PhaseSpec(length=100, overrides={"far_dependence_fraction": 2.0}),
                ),
            )


class TestGeneratorExtremes:
    """Scenario-style extremes: degenerate phases and boundary fractions."""

    def _profile(self, **kwargs) -> WorkloadProfile:
        defaults = dict(
            name="extreme-test",
            suite="test",
            code_footprint_kb=4.0,
            inner_window_kb=2.0,
            data_footprint_kb=64.0,
            hot_data_kb=16.0,
            simulation_window=2_000,
        )
        defaults.update(kwargs)
        return WorkloadProfile(**defaults)

    def test_zero_length_phase_is_unrepresentable(self):
        with pytest.raises(ValueError, match="positive"):
            PhaseSpec(length=0)
        with pytest.raises(ValueError, match="positive"):
            PhaseSpec(length=-5)

    def test_singleton_phases_advance_every_instruction(self):
        profile = self._profile(
            phases=(
                PhaseSpec(length=1, overrides={"hot_data_fraction": 0.0}),
                PhaseSpec(length=1, overrides={"hot_data_fraction": 1.0}),
            )
        )
        trace = CompiledTrace(SyntheticTraceGenerator(profile, seed=3))
        for count in range(1, 401):
            trace.ensure(count)
        # One-instruction phases flip the phase on every row, one row per
        # step too: even rows touch only the cold region, odd rows only the
        # hot one.
        hot_end = HOT_DATA_BASE + int(profile.hot_data_kb * 1024)
        regions = {
            (row % 2, address < hot_end)
            for row, (bits, address) in enumerate(zip(trace.flags, trace.address))
            if bits & FLAG_MEMORY
        }
        assert regions == {(0, False), (1, True)}

    def test_hot_fraction_zero_touches_only_the_cold_region(self):
        profile = self._profile(hot_data_fraction=0.0)
        hot_bytes = int(profile.hot_data_kb * 1024)
        addresses = memory_addresses(rows(profile, 4_000, seed=11))
        assert addresses
        assert all(address >= HOT_DATA_BASE + hot_bytes for address in addresses)

    def test_hot_fraction_one_touches_only_the_hot_region(self):
        profile = self._profile(hot_data_fraction=1.0)
        hot_bytes = int(profile.hot_data_kb * 1024)
        addresses = memory_addresses(rows(profile, 4_000, seed=11))
        assert addresses
        assert all(
            HOT_DATA_BASE <= address < HOT_DATA_BASE + hot_bytes for address in addresses
        )

    def test_phase_override_round_trip_preserves_the_stream(self):
        # PhaseSpec -> dict -> PhaseSpec must reproduce the exact trace.
        phases = (
            PhaseSpec(length=37, overrides={"hot_data_fraction": 0.0}),
            PhaseSpec(
                length=501,
                overrides={"mean_dependence_distance": 1.0, "sequential_fraction": 1.0},
            ),
        )
        rebuilt = tuple(PhaseSpec.from_dict(phase.to_dict()) for phase in phases)
        assert rebuilt == phases
        original = self._profile(phases=phases)
        round_tripped = WorkloadProfile.from_dict(original.to_dict())
        assert round_tripped == original
        assert same_rows(rows(original, 3_000, seed=5), rows(round_tripped, 3_000, seed=5))

    def test_extreme_phase_profile_replays_identically_from_the_cache(self):
        from repro.workloads.trace_cache import cached_trace, clear_trace_cache

        profile = self._profile(
            phases=(
                PhaseSpec(length=1, overrides={"hot_data_fraction": 1.0}),
                PhaseSpec(length=613, overrides={"hot_data_fraction": 0.0}),
            )
        )
        clear_trace_cache()
        try:
            fresh = rows(profile, 3_000, seed=8)
            compiled = cached_trace(profile, seed=8).compiled
            assert compiled.ensure(3_000) == 3_000
            assert same_rows(compiled, fresh)
            # A second consumer reads the same columns.
            assert cached_trace(profile, seed=8).compiled is compiled
        finally:
            clear_trace_cache()


class TestScheduleBuilders:
    """The generic schedule vocabulary used by the scenario subsystem."""

    def test_square_wave_period_and_duty(self):
        low, high = {"hot_data_kb": 8.0}, {"hot_data_kb": 64.0}
        phases = square_wave(low, high, period=1_000, duty=0.25)
        assert sum(phase.length for phase in phases) == 1_000
        assert phases[0].overrides["hot_data_kb"] == 8.0
        assert phases[1].overrides["hot_data_kb"] == 64.0
        assert phases[1].length == 250

    def test_square_wave_extreme_duty_keeps_both_phases(self):
        phases = square_wave({"hot_data_kb": 8.0}, {"hot_data_kb": 64.0}, period=10, duty=0.999)
        assert all(phase.length >= 1 for phase in phases)
        assert sum(phase.length for phase in phases) == 10

    def test_square_wave_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            square_wave({}, {}, period=1)
        with pytest.raises(ValueError):
            square_wave({}, {}, period=100, duty=0.0)
        with pytest.raises(ValueError):
            square_wave({}, {}, period=100, duty=1.0)

    def test_ramp_interpolates_linearly(self):
        phases = ramp(
            {"hot_data_kb": 0.0}, {"hot_data_kb": 100.0}, steps=5, total_length=1_000
        )
        assert [phase.overrides["hot_data_kb"] for phase in phases] == [
            0.0,
            25.0,
            50.0,
            75.0,
            100.0,
        ]
        assert sum(phase.length for phase in phases) == 1_000

    def test_ramp_distributes_the_remainder(self):
        phases = ramp({"hot_data_kb": 1.0}, {"hot_data_kb": 2.0}, steps=3, total_length=100)
        assert [phase.length for phase in phases] == [34, 33, 33]

    def test_ramp_rejects_mismatched_endpoints(self):
        with pytest.raises(ValueError, match="same fields"):
            ramp({"hot_data_kb": 1.0}, {"sequential_fraction": 0.5}, steps=2, total_length=10)

    def test_ramp_rejects_non_numeric_fields(self):
        with pytest.raises(ValueError, match="numeric"):
            ramp({"hot_data_kb": "a"}, {"hot_data_kb": "b"}, steps=2, total_length=10)

    def test_triangle_rises_then_falls_holding_the_peak_once(self):
        phases = triangle(
            {"mean_dependence_distance": 4.0},
            {"mean_dependence_distance": 40.0},
            steps=3,
            period=600,
        )
        values = [phase.overrides["mean_dependence_distance"] for phase in phases]
        # The wrap back to phase 0 supplies the trough, so the cycle holds
        # peak and trough exactly once each and sums to the exact period.
        assert values == [4.0, 22.0, 40.0, 22.0]
        assert sum(phase.length for phase in phases) == 600

    def test_triangle_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError, match="at least 2 steps"):
            triangle({"hot_data_kb": 1.0}, {"hot_data_kb": 2.0}, steps=1, period=100)
        with pytest.raises(ValueError, match="period"):
            triangle({"hot_data_kb": 1.0}, {"hot_data_kb": 2.0}, steps=3, period=3)

    def test_burst_schedule_is_asymmetric(self):
        quiet, burst = burst_schedule(
            {"hot_data_kb": 8.0},
            {"hot_data_kb": 64.0},
            quiet_length=9_000,
            burst_length=500,
        )
        assert quiet.length == 9_000 and burst.length == 500
        assert burst.overrides["hot_data_kb"] > quiet.overrides["hot_data_kb"]
