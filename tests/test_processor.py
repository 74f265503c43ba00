"""Integration tests for the MCD processor simulator."""

import dataclasses
import gc
import weakref
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from golden_digests import golden_jobs
from repro.analysis.metrics import RunResult
from repro.core import (
    AdaptiveConfigIndices,
    AdaptiveControlParams,
    ArchitecturalParameters,
    MCDProcessor,
    adaptive_mcd_spec,
    base_adaptive_spec,
    best_overall_synchronous_spec,
)
from repro.engine import SimulationJob, SpecKind, make_trace
from repro.obs.recorder import TraceRecorder
from repro.scenarios.library import get_scenario
from repro.timing.tables import ISSUE_QUEUE_SIZES
from repro.workloads import WorkloadProfile, get_workload

from tests.trace_rows import copy_rows


def run_machine(spec, profile, *, window=1500, warmup=1500, phase_adaptive=False,
                control=None, trace_seed=11):
    processor = MCDProcessor(spec, phase_adaptive=phase_adaptive, control=control)
    return processor.run(
        make_trace(profile, seed=trace_seed),
        max_instructions=window,
        warmup_instructions=warmup,
        workload_name=profile.name,
    )


class TestBasicExecution:
    def test_synchronous_run_commits_requested_instructions(self, tiny_profile):
        result = run_machine(best_overall_synchronous_spec(), tiny_profile)
        assert result.committed_instructions >= 1500
        assert result.execution_time_ps > 0
        assert result.front_end_ipc > 0.2

    def test_adaptive_run_commits_requested_instructions(self, tiny_profile):
        result = run_machine(base_adaptive_spec(use_b_partitions=False), tiny_profile)
        assert result.committed_instructions >= 1500
        assert result.execution_time_ps > 0

    def test_finite_trace_drains_cleanly(self, tiny_profile):
        spec = best_overall_synchronous_spec()
        processor = MCDProcessor(spec)
        trace = copy_rows(make_trace(tiny_profile, seed=1), 400)
        result = processor.run(trace, max_instructions=10_000)
        assert 0 < result.committed_instructions <= 400

    def test_all_domains_tick(self, tiny_profile):
        result = run_machine(base_adaptive_spec(use_b_partitions=False), tiny_profile)
        for domain in ("front_end", "integer", "floating_point", "load_store"):
            assert result.domain_cycles[domain] > 0

    def test_statistics_are_consistent(self, tiny_profile):
        result = run_machine(best_overall_synchronous_spec(), tiny_profile)
        assert result.branch_mispredictions <= result.branch_predictions
        assert result.l1d_misses <= result.loads + result.stores
        assert result.memory_accesses <= result.l2_misses + result.icache_misses + 5

    def test_deterministic_given_seeds(self, tiny_profile):
        first = run_machine(best_overall_synchronous_spec(), tiny_profile)
        second = run_machine(best_overall_synchronous_spec(), tiny_profile)
        assert first.execution_time_ps == second.execution_time_ps

    def test_synchronous_machine_has_no_sync_penalties(self, tiny_profile):
        result = run_machine(best_overall_synchronous_spec(), tiny_profile)
        assert result.sync_transfers == 0
        assert result.sync_penalties == 0

    def test_mcd_machine_records_sync_activity(self, tiny_profile):
        result = run_machine(base_adaptive_spec(use_b_partitions=False), tiny_profile)
        assert result.sync_transfers > 0

    def test_invalid_arguments(self, tiny_profile):
        with pytest.raises(ValueError):
            MCDProcessor(best_overall_synchronous_spec(), phase_adaptive=True)
        processor = MCDProcessor(best_overall_synchronous_spec())
        with pytest.raises(ValueError):
            processor.run(iter(()), max_instructions=0)


class TestFrequencyComplexityTradeoffs:
    def test_memory_bound_workload_gains_from_larger_caches(self, memory_bound_profile):
        """The core tradeoff of the paper: for a memory-bound workload, a
        larger (slower) D/L2 configuration beats the smallest one."""
        small = run_machine(
            adaptive_mcd_spec(AdaptiveConfigIndices(dcache_index=0), use_b_partitions=False),
            memory_bound_profile, window=4000, warmup=60_000,
        )
        large = run_machine(
            adaptive_mcd_spec(AdaptiveConfigIndices(dcache_index=3), use_b_partitions=False),
            memory_bound_profile, window=4000, warmup=60_000,
        )
        assert large.execution_time_ps < small.execution_time_ps
        assert large.l1d_misses < small.l1d_misses

    def test_small_workload_prefers_small_fast_caches(self, tiny_profile):
        small = run_machine(
            adaptive_mcd_spec(AdaptiveConfigIndices(dcache_index=0), use_b_partitions=False),
            tiny_profile, window=2500,
        )
        large = run_machine(
            adaptive_mcd_spec(AdaptiveConfigIndices(dcache_index=3), use_b_partitions=False),
            tiny_profile, window=2500,
        )
        assert small.execution_time_ps < large.execution_time_ps

    def test_large_code_footprint_gains_from_larger_icache(self):
        profile = WorkloadProfile(
            name="icache-bound", suite="test",
            code_footprint_kb=80.0, inner_window_kb=48.0,
            data_footprint_kb=32.0, hot_data_kb=8.0,
            simulation_window=2_500,
        )
        small = run_machine(
            adaptive_mcd_spec(AdaptiveConfigIndices(icache_index=0), use_b_partitions=False),
            profile, window=2500, warmup=25_000,
        )
        large = run_machine(
            adaptive_mcd_spec(AdaptiveConfigIndices(icache_index=3), use_b_partitions=False),
            profile, window=2500, warmup=25_000,
        )
        assert large.icache_misses < small.icache_misses
        assert large.execution_time_ps < small.execution_time_ps

    def test_mispredict_penalty_difference_costs_time(self, tiny_profile):
        spec = adaptive_mcd_spec(AdaptiveConfigIndices(), use_b_partitions=False)
        cheap = dataclasses.replace(
            spec, mispredict_front_end_cycles=9, mispredict_integer_cycles=7
        )
        expensive = dataclasses.replace(
            spec, mispredict_front_end_cycles=14, mispredict_integer_cycles=13
        )
        fast = run_machine(cheap, tiny_profile, window=2500)
        slow = run_machine(expensive, tiny_profile, window=2500)
        assert fast.execution_time_ps <= slow.execution_time_ps

    def test_disabling_sync_model_speeds_up_mcd(self, tiny_profile):
        spec = adaptive_mcd_spec(AdaptiveConfigIndices(), use_b_partitions=False)
        nosync = dataclasses.replace(spec, inter_domain_sync=False)
        with_sync = run_machine(spec, tiny_profile, window=2500)
        without_sync = run_machine(nosync, tiny_profile, window=2500)
        # The paper reports the synchronisation overhead averages below ~3%;
        # allow a generous bound (and a little noise in the other direction,
        # since removing synchronisation changes event interleaving).
        overhead = with_sync.execution_time_ps / without_sync.execution_time_ps - 1
        assert -0.03 < overhead < 0.10


class TestPhaseAdaptiveExecution:
    def control(self, window=2000):
        return AdaptiveControlParams(
            interval_instructions=max(500, window // 8), pll_interval_scaled=True
        )

    def test_phase_adaptive_runs_and_records_decisions(self, tiny_profile):
        result = run_machine(
            base_adaptive_spec(), tiny_profile, window=3000,
            phase_adaptive=True, control=self.control(3000),
        )
        assert result.committed_instructions >= 3000
        assert isinstance(result, RunResult)
        # Each interval records the chosen configuration (changed or not).
        assert result.configuration_changes

    def test_phase_adaptive_upsizes_caches_for_memory_bound_code(self):
        from repro.analysis.sweep import run_phase_adaptive, run_program_adaptive
        from repro.workloads import get_workload

        profile = get_workload("em3d")
        phase = run_phase_adaptive(profile, window=12_000)
        fixed_base = run_program_adaptive(
            profile, AdaptiveConfigIndices(), window=12_000
        )
        dcache_choices = {
            change.configuration
            for change in phase.configuration_changes
            if change.structure == "dcache"
        }
        # The controller must react to the memory-bound behaviour: either it
        # upsizes the D/L2 pair or (at minimum) the run is no slower than the
        # fixed base configuration despite controller overheads.
        assert (
            any(name != "32k1W/256k1W" for name in dcache_choices)
            or phase.execution_time_ps <= fixed_base.execution_time_ps
        )

    def test_phase_adaptive_keeps_small_caches_for_small_working_set(self, tiny_profile):
        result = run_machine(
            base_adaptive_spec(), tiny_profile, window=4000,
            phase_adaptive=True, control=self.control(4000),
        )
        final_dcache = [
            change.configuration
            for change in result.configuration_changes
            if change.structure == "dcache"
        ]
        assert final_dcache[-1] == "32k1W/256k1W"

    def test_queue_controller_reacts_to_high_ilp_phase(self):
        profile = WorkloadProfile(
            name="ilp-phase", suite="test",
            mean_dependence_distance=70.0, far_dependence_fraction=0.4,
            data_footprint_kb=32.0, hot_data_kb=8.0,
            simulation_window=6000,
        )
        processor = MCDProcessor(
            base_adaptive_spec(), phase_adaptive=True, control=self.control(6000)
        )
        processor.run(
            make_trace(profile, seed=11), max_instructions=6000,
            warmup_instructions=3000, workload_name=profile.name,
        )
        controller = processor._int_queue_controller
        assert controller is not None and controller.decisions
        # The ILP tracker must recognise the abundant parallelism: at least
        # some windows should score a deeper queue above the 16-entry one.
        assert any(ISSUE_QUEUE_SIZES[d.raw_best] > 16 for d in controller.decisions)


class ListSink(list):
    """A trace sink keeping every event in memory."""

    write = list.append

    def close(self) -> None:
        """Nothing to release."""


#: The machines the lifetime tests run over ``tiny_profile``.  The traced one
#: attaches a recorder, so every trace emission runs.
LIFETIME_MACHINES = {
    "synchronous": lambda: MCDProcessor(best_overall_synchronous_spec()),
    "fixed-mcd": lambda: MCDProcessor(adaptive_mcd_spec(AdaptiveConfigIndices(1, 1))),
    "phase-adaptive": lambda: MCDProcessor(base_adaptive_spec(), phase_adaptive=True),
    "jittered": lambda: MCDProcessor(adaptive_mcd_spec(), jitter_fraction=0.05),
    "traced": lambda: MCDProcessor(
        base_adaptive_spec(), phase_adaptive=True, recorder=TraceRecorder([ListSink()])
    ),
}


class TestProcessorLifetime:
    """A finished processor holds no reference cycle, so reference counting
    frees it (and its caches) without a cyclic-GC pass."""

    @staticmethod
    def finish_and_drop(make_processor, profile, *, window, warmup, trace_seed=1234):
        """Run a processor and drop it: whether reference counting freed it,
        whether a reconfiguration was still pending, and how many objects a
        cyclic-GC pass then found."""
        gc.collect()
        gc.disable()
        try:
            processor = make_processor()
            processor.run(
                make_trace(profile, seed=trace_seed),
                max_instructions=window,
                warmup_instructions=warmup,
            )
            pending = bool(processor._pending_events)
            alive = weakref.ref(processor)
            del processor
            return alive() is None, pending, gc.collect()
        finally:
            gc.enable()

    def finish_and_drop_machine(self, name, profile):
        """:meth:`finish_and_drop` for a machine of ``LIFETIME_MACHINES`` on
        *profile*, or for a run that ends with a reconfiguration pending."""
        if name == "reconfiguration-pending":
            return self.finish_and_drop(
                lambda: MCDProcessor(
                    base_adaptive_spec(),
                    phase_adaptive=True,
                    control=AdaptiveControlParams(interval_instructions=1000),
                ),
                get_scenario("paper-apsi-capacity").build_profile(),
                window=3000,
                warmup=2000,
            )
        return self.finish_and_drop(LIFETIME_MACHINES[name], profile, window=1500, warmup=1500)

    @pytest.mark.parametrize("name", list(LIFETIME_MACHINES))
    def test_finished_processor_is_freed(self, tiny_profile, name):
        freed, _, _ = self.finish_and_drop_machine(name, tiny_profile)
        assert freed

    def test_freed_with_a_reconfiguration_pending(self):
        freed, pending, _ = self.finish_and_drop_machine("reconfiguration-pending", None)
        assert pending
        assert freed

    @pytest.mark.parametrize("name", [*LIFETIME_MACHINES, "reconfiguration-pending"])
    def test_finished_run_leaves_no_reference_cycle(self, tiny_profile, name):
        # Records still in flight when the run stops (a producer without a
        # completion time and its consumers) must not refer to each other.
        _, _, unreachable = self.finish_and_drop_machine(name, tiny_profile)
        assert unreachable == 0

    def test_construction_builds_cache_sets_lazily(self):
        MCDProcessor(base_adaptive_spec())  # first-use caches outside the count
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            processor = MCDProcessor(base_adaptive_spec())
            added = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert processor.hierarchy.l2.num_sets > 200
        assert added < 200


def unissued(processor, inst):
    """Whether the dispatched *inst* has yet to issue, and so may still read
    its producers (a memory op issues at address generation, when it enters
    the load/store queue's heap)."""
    if inst.completion_time is not None:
        return False
    lsq = processor.lsq
    return inst not in lsq.ready and all(entry is not inst for _, _, entry in lsq.heap)


class ReuseChecked(deque):
    """A processor's committed records, where each reuse by fetch
    (``popleft``) notes every in-flight record that has not issued and still
    names the reused record as a producer."""

    def __init__(self, processor):
        super().__init__()
        self.processor = processor
        self.reuses = 0
        self.violations = []

    def popleft(self):
        record = super().popleft()
        self.reuses += 1
        for inst in self.processor.rob.entries:
            if record in inst.producers and unissued(self.processor, inst):
                self.violations.append((record.seq, inst.seq))
        return record


def run_checking_reuse(job):
    """Run *job* with its record reuse checked; the checked records."""
    processor = MCDProcessor(
        job.build_spec(),
        control=job.resolved_control(),
        phase_adaptive=job.phase_adaptive,
        seed=job.seed,
        jitter_fraction=job.jitter_fraction,
        sync_window_fraction=job.resolved_sync_window_fraction(),
    )
    retired = processor._retired = ReuseChecked(processor)
    processor.run(
        make_trace(job.profile, seed=job.trace_seed),
        max_instructions=job.resolved_window(),
        warmup_instructions=job.resolved_warmup(),
    )
    return retired


class TestRecordReuse:
    """Fetch reuses a committed record only once every consumer naming it
    as a producer has issued."""

    @pytest.mark.parametrize("name", sorted(golden_jobs()))
    def test_golden_jobs_reuse_no_record_still_named(self, name):
        retired = run_checking_reuse(golden_jobs()[name])
        assert retired.reuses > 0
        assert retired.violations == []

    @given(
        workload=st.sampled_from(("gcc", "em3d", "mst", "art", "apsi", "adpcm_encode")),
        spec_kind=st.sampled_from(tuple(SpecKind)),
        phase_adaptive=st.booleans(),
        jitter=st.sampled_from((0.0, 0.05)),
        rob_entries=st.sampled_from((32, 256)),
    )
    @settings(max_examples=10, deadline=10_000)
    def test_generated_jobs_reuse_no_record_still_named(
        self, workload, spec_kind, phase_adaptive, jitter, rob_entries
    ):
        adaptive = spec_kind in (SpecKind.ADAPTIVE, SpecKind.BASE_ADAPTIVE)
        parameters = ArchitecturalParameters(reorder_buffer_entries=rob_entries)
        job = SimulationJob(
            profile=get_workload(workload),
            spec_kind=spec_kind,
            spec_overrides={"parameters": parameters},
            phase_adaptive=phase_adaptive and adaptive,
            window=800,
            warmup=300,
            jitter_fraction=jitter if adaptive else 0.0,
        )
        retired = run_checking_reuse(job)
        assert retired.reuses > 0
        assert retired.violations == []
