"""Behaviour-preservation tests for the hot-path fast-forward.

The quiescent-phase fast-forward must be purely a wall-clock optimisation:
simulated results are bit-identical with it on or off, and it stands down
whenever skipping could interact with the adaptive controllers (a
reconfiguration in progress) or with jittered clocks.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.domains import Domain
from repro.core.processor import MCDProcessor
from repro.engine import SimulationJob, SpecKind, make_trace, run_job
from repro.workloads import get_workload


def run_with_fast_path(
    job: SimulationJob, *, fast_forward: bool = True, horizon: bool = True
) -> tuple[MCDProcessor, object]:
    processor = MCDProcessor(
        job.build_spec(),
        control=job.resolved_control(),
        phase_adaptive=job.phase_adaptive,
        seed=job.seed,
        jitter_fraction=job.jitter_fraction,
        sync_window_fraction=job.resolved_sync_window_fraction(),
        fast_forward=fast_forward,
        horizon_scheduling=horizon,
    )
    trace = make_trace(job.profile, seed=job.trace_seed)
    result = processor.run(
        trace.instructions(),
        max_instructions=job.resolved_window(),
        warmup_instructions=job.resolved_warmup(),
        workload_name=job.profile.name,
    )
    return processor, result


def run_with_fast_forward(
    job: SimulationJob, enabled: bool
) -> tuple[MCDProcessor, object]:
    return run_with_fast_path(job, fast_forward=enabled)


class TestFastForwardGolden:
    def test_fig6_workload_run_result_identical_with_and_without_fast_forward(self):
        """Golden-value check: a fixed-seed fig6 workload is bit-identical."""
        job = SimulationJob(
            profile=get_workload("gcc"),
            spec_kind=SpecKind.BEST_SYNCHRONOUS,
            window=2_000,
            warmup=1_500,
        )
        with_ff_processor, with_ff = run_with_fast_forward(job, True)
        without_ff_processor, without_ff = run_with_fast_forward(job, False)
        # The comparison only means something if fast-forward actually fired.
        assert with_ff_processor.fast_forward_cycles > 0
        assert without_ff_processor.fast_forward_cycles == 0
        assert with_ff == without_ff

    def test_phase_adaptive_run_result_identical_with_and_without_fast_forward(self):
        job = SimulationJob(
            profile=get_workload("gcc"),
            spec_kind=SpecKind.BASE_ADAPTIVE,
            use_b_partitions=True,
            phase_adaptive=True,
            window=2_000,
            warmup=1_500,
        )
        _, with_ff = run_with_fast_forward(job, True)
        _, without_ff = run_with_fast_forward(job, False)
        assert with_ff == without_ff

    def test_engine_path_uses_fast_forward_by_default(self):
        job = SimulationJob(
            profile=get_workload("gcc"),
            spec_kind=SpecKind.BEST_SYNCHRONOUS,
            window=1_200,
            warmup=800,
        )
        _, direct = run_with_fast_forward(job, True)
        assert run_job(job) == direct


def drained_processor() -> MCDProcessor:
    """A processor forced into the quiescent state the main loop checks for.

    A short run builds the front end and realistic clock state; the in-flight
    machinery is then explicitly drained, which is exactly the precondition
    under which the main loop consults ``_try_fast_forward``.
    """
    job = SimulationJob(
        profile=get_workload("gcc"),
        spec_kind=SpecKind.BEST_SYNCHRONOUS,
        window=400,
        warmup=200,
    )
    processor, _ = run_with_fast_forward(job, True)
    assert processor.frontend is not None
    processor.rob.reset()
    processor.frontend.fetch_queue.clear()
    processor.frontend._waiting_branch = None
    processor.lsq.reset()
    processor.int_queue.reset()
    processor.fp_queue.reset()
    processor._pending_events.clear()
    processor._changes_in_progress.clear()
    processor.fast_forward_invocations = 0
    processor.fast_forward_cycles = 0
    assert processor.rob.is_empty()
    assert processor.frontend.fetch_queue.occupancy == 0
    return processor


def clock_tuple(processor: MCDProcessor):
    return (
        processor.clocks[Domain.FRONT_END],
        processor.clocks[Domain.INTEGER],
        processor.clocks[Domain.FLOATING_POINT],
        processor.clocks[Domain.LOAD_STORE],
    )


class TestFastForwardGating:
    def test_skips_idle_edges_up_to_the_stall_horizon(self):
        processor = drained_processor()
        clocks = clock_tuple(processor)
        fe_clock = clocks[0]
        processor.frontend._stall_until = fe_clock.next_edge + 50 * fe_clock.period_ps
        stalls_before = processor.frontend.stats.fetch_stall_cycles
        # The horizon of the stretch being skipped, computed before the call:
        # the fast-forward may legitimately chain past it (it runs fetch at
        # the resume edge and keeps going through an I-cache miss streak).
        horizon = fe_clock.edge_at_or_after(processor.frontend._stall_until)

        processor._try_fast_forward(*clocks)

        assert processor.fast_forward_invocations == 1
        assert processor.fast_forward_cycles > 0
        assert processor.steady_stretches_skipped >= 1
        for clock in clocks:
            assert clock.next_edge >= horizon
        # Skipped front-end edges are accounted as fetch stalls, as the
        # one-cycle-at-a-time path would have counted them.
        assert processor.frontend.stats.fetch_stall_cycles > stalls_before

    def test_bypassed_while_a_reconfiguration_is_in_progress(self):
        """Active controllers (a change mid-flight) disable the fast-forward."""
        processor = drained_processor()
        clocks = clock_tuple(processor)
        fe_clock = clocks[0]
        processor.frontend._stall_until = fe_clock.next_edge + 50 * fe_clock.period_ps
        processor._changes_in_progress.add(Domain.LOAD_STORE)

        before = [clock.next_edge for clock in clocks]
        processor._try_fast_forward(*clocks)

        assert processor.fast_forward_invocations == 0
        assert processor.fast_forward_cycles == 0
        assert [clock.next_edge for clock in clocks] == before

    def test_bypassed_while_fetch_waits_on_an_unresolved_branch(self):
        processor = drained_processor()
        clocks = clock_tuple(processor)
        processor.frontend._waiting_branch = object()

        processor._try_fast_forward(*clocks)

        assert processor.fast_forward_cycles == 0

    def test_pending_reconfiguration_event_caps_the_horizon(self):
        processor = drained_processor()
        clocks = clock_tuple(processor)
        fe_clock = clocks[0]
        period = fe_clock.period_ps
        processor.frontend._stall_until = fe_clock.next_edge + 100 * period
        event_time = fe_clock.next_edge + 10 * period
        fired = []
        processor._pending_events.append((event_time, lambda: fired.append(True)))

        processor._try_fast_forward(*clocks)

        # No domain skipped past the pending event, and it did not fire.
        for clock in clocks:
            assert clock.next_edge - clock.period_ps < event_time
        assert not fired
        assert processor._pending_events

    def test_enabled_under_clock_jitter(self):
        """The index-addressable jitter stream keeps bulk skips exact, so
        jitter no longer disables the fast-forward."""
        job = SimulationJob(
            profile=get_workload("gcc"),
            spec_kind=SpecKind.BEST_SYNCHRONOUS,
            window=300,
            warmup=100,
        )
        processor = MCDProcessor(job.build_spec(), seed=1, jitter_fraction=0.1)
        assert processor._fast_forward_enabled

    def test_explicitly_disabled_never_skips(self):
        job = SimulationJob(
            profile=get_workload("gcc"),
            spec_kind=SpecKind.BEST_SYNCHRONOUS,
            window=2_000,
            warmup=1_500,
        )
        processor, _ = run_with_fast_forward(job, False)
        assert processor.fast_forward_invocations == 0
        assert processor.fast_forward_cycles == 0


class TestBulkEdgeSkip:
    @pytest.mark.parametrize("jitter_fraction", [0.0, 0.2])
    def test_skip_edges_before_matches_individual_advances(self, jitter_fraction):
        from repro.clocks.clock import DomainClock

        bulk = DomainClock("test", 1.0, jitter_fraction=jitter_fraction, seed=3)
        stepwise = DomainClock("test", 1.0, jitter_fraction=jitter_fraction, seed=3)
        for _ in range(7):
            stepwise.advance()
        assert bulk.skip_edges_before(stepwise.next_edge) == 7
        assert bulk.next_edge == stepwise.next_edge
        assert bulk.cycle_count == stepwise.cycle_count


class TestHorizonScheduling:
    """Event-horizon edge scheduling is a pure wall-clock optimisation:
    bit-identical results with it on or off, on every machine style."""

    def adaptive_job(self, **kwargs) -> SimulationJob:
        return SimulationJob(
            profile=get_workload("gcc"),
            spec_kind=SpecKind.ADAPTIVE,
            use_b_partitions=False,
            window=2_000,
            warmup=1_500,
            **kwargs,
        )

    def test_horizon_on_off_identical_jitter_free(self):
        job = self.adaptive_job()
        with_processor, with_horizon = run_with_fast_path(job, horizon=True)
        without_processor, without_horizon = run_with_fast_path(job, horizon=False)
        # The comparison only means something if edges were actually skipped.
        assert with_processor.horizon_skipped_edges > 0
        assert without_processor.horizon_skipped_edges == 0
        assert with_horizon == without_horizon

    def test_horizon_on_off_identical_jittered(self):
        job = self.adaptive_job(jitter_fraction=0.05)
        with_processor, with_horizon = run_with_fast_path(job, horizon=True)
        _, without_horizon = run_with_fast_path(job, horizon=False)
        assert with_processor.horizon_skipped_edges > 0
        assert with_horizon == without_horizon

    def test_horizon_on_off_identical_phase_adaptive(self):
        job = SimulationJob(
            profile=get_workload("em3d"),
            spec_kind=SpecKind.BASE_ADAPTIVE,
            use_b_partitions=True,
            phase_adaptive=True,
            window=2_000,
            warmup=1_500,
        )
        _, with_horizon = run_with_fast_path(job, horizon=True)
        _, without_horizon = run_with_fast_path(job, horizon=False)
        assert with_horizon == without_horizon

    @pytest.mark.parametrize("jitter", [0.0, 0.05])
    def test_every_fast_path_combination_is_identical(self, jitter):
        job = SimulationJob(
            profile=get_workload("gcc"),
            spec_kind=SpecKind.BASE_ADAPTIVE,
            use_b_partitions=True,
            phase_adaptive=True,
            window=1_500,
            warmup=1_000,
            jitter_fraction=jitter,
        )
        _, baseline = run_with_fast_path(job, fast_forward=False, horizon=False)
        for fast_forward, horizon in itertools.product((False, True), repeat=2):
            _, result = run_with_fast_path(
                job, fast_forward=fast_forward, horizon=horizon
            )
            assert result == baseline, (fast_forward, horizon)

    def test_counters_stay_out_of_result_equality(self):
        job = self.adaptive_job()
        _, with_horizon = run_with_fast_path(job, horizon=True)
        _, without_horizon = run_with_fast_path(job, horizon=False)
        assert with_horizon.horizon_skipped_edges > 0
        assert without_horizon.horizon_skipped_edges == 0
        # Equal despite differing observability counters (compare=False).
        assert with_horizon == without_horizon


class TestCounterHygiene:
    """Fast-path counters reset with the warm-up reset, so they describe the
    measured window even if the processor object arrives polluted."""

    def job(self) -> SimulationJob:
        return SimulationJob(
            profile=get_workload("gcc"),
            spec_kind=SpecKind.BEST_SYNCHRONOUS,
            window=1_500,
            warmup=1_000,
        )

    COUNTERS = (
        "fast_forward_invocations",
        "fast_forward_cycles",
        "steady_stretches_skipped",
        "horizon_skipped_edges",
    )

    def run_once(self, polluted: bool):
        job = self.job()
        processor = MCDProcessor(
            job.build_spec(),
            control=job.resolved_control(),
            seed=job.seed,
            sync_window_fraction=job.resolved_sync_window_fraction(),
        )
        if polluted:
            for name in self.COUNTERS:
                setattr(processor, name, 1_000_000)
        trace = make_trace(job.profile, seed=job.trace_seed)
        result = processor.run(
            trace.instructions(),
            max_instructions=job.resolved_window(),
            warmup_instructions=job.resolved_warmup(),
            workload_name=job.profile.name,
        )
        return processor, result

    def test_warm_up_reset_erases_pollution(self):
        _, clean = self.run_once(polluted=False)
        _, polluted = self.run_once(polluted=True)
        assert polluted == clean
        for name in self.COUNTERS:
            value = getattr(polluted, name)
            assert value == getattr(clean, name)
            assert value < 1_000_000

    def test_counters_describe_the_measured_window_only(self):
        processor, result = self.run_once(polluted=False)
        assert result.fast_forward_invocations == processor.fast_forward_invocations
        assert result.fast_forward_cycles == processor.fast_forward_cycles
        assert result.horizon_skipped_edges == processor.horizon_skipped_edges


class TestJitteredFastForward:
    """Under jitter the fast-forward must stay a pure wall-clock optimisation,
    exactly as on jitter-free clocks."""

    def jittered_job(self, **kwargs) -> SimulationJob:
        return SimulationJob(
            profile=get_workload("gcc"),
            spec_kind=SpecKind.BEST_SYNCHRONOUS,
            window=2_000,
            warmup=1_500,
            jitter_fraction=0.05,
            **kwargs,
        )

    def test_jittered_run_identical_with_and_without_fast_forward(self):
        job = self.jittered_job()
        with_ff_processor, with_ff = run_with_fast_forward(job, True)
        without_ff_processor, without_ff = run_with_fast_forward(job, False)
        # The comparison only means something if fast-forward actually fired.
        assert with_ff_processor.fast_forward_cycles > 0
        assert without_ff_processor.fast_forward_cycles == 0
        assert with_ff == without_ff

    def test_jittered_phase_adaptive_identical_with_and_without_fast_forward(self):
        job = SimulationJob(
            profile=get_workload("gcc"),
            spec_kind=SpecKind.BASE_ADAPTIVE,
            use_b_partitions=True,
            phase_adaptive=True,
            window=2_000,
            warmup=1_500,
            jitter_fraction=0.05,
        )
        _, with_ff = run_with_fast_forward(job, True)
        _, without_ff = run_with_fast_forward(job, False)
        assert with_ff == without_ff

    def test_engine_path_runs_jittered_jobs_with_fast_forward(self):
        job = self.jittered_job()
        _, direct = run_with_fast_forward(job, True)
        assert run_job(job) == direct
