"""Tests for the design-space exploration helpers (small, fast sweeps)."""

import pytest

from repro.analysis.metrics import RunResult
from repro.analysis.reporting import format_table, improvement_table
from repro.analysis.sweep import (
    _combine_factored_winners,
    _search_candidates,
    average_improvements,
    compare_workload,
    program_adaptive_search,
    run_phase_adaptive,
    run_program_adaptive,
    run_synchronous,
)
from repro.core.configuration import AdaptiveConfigIndices
from repro.engine import DEFAULT_TRACE_SEED, default_control_params, default_warmup, make_trace
from repro.workloads import WorkloadProfile
from repro.workloads.trace_cache import cached_trace


@pytest.fixture(scope="module")
def quick_profile():
    return WorkloadProfile(
        name="quick", suite="test",
        code_footprint_kb=4.0, inner_window_kb=2.0,
        data_footprint_kb=48.0, hot_data_kb=12.0,
        simulation_window=1_200,
    )


class TestHelpers:
    def test_default_warmup_scales_with_footprint(self):
        small = WorkloadProfile(name="s", suite="t", data_footprint_kb=16.0, hot_data_kb=8.0)
        large = WorkloadProfile(name="l", suite="t", data_footprint_kb=1024.0, hot_data_kb=512.0)
        assert default_warmup(large) > default_warmup(small)
        assert default_warmup(large) <= 100_000

    def test_default_control_params_scale_interval(self):
        params = default_control_params(24_000)
        assert params.interval_instructions == 4_000
        assert params.pll_interval_scaled

    def test_make_trace_uses_default_seed(self, quick_profile):
        trace = make_trace(quick_profile)
        assert trace is cached_trace(quick_profile, seed=DEFAULT_TRACE_SEED).compiled

    def test_factored_candidates_cover_each_dimension(self):
        candidates = _search_candidates("factored")
        assert AdaptiveConfigIndices() in candidates
        assert any(c.icache_index == 3 for c in candidates)
        assert any(c.dcache_index == 3 for c in candidates)
        assert any(c.int_queue_size == 64 for c in candidates)
        assert any(c.fp_queue_size == 64 for c in candidates)


class TestRunners:
    def test_run_synchronous_default_baseline(self, quick_profile):
        result = run_synchronous(quick_profile, window=1000, warmup=2000)
        assert result.style == "synchronous"
        assert result.committed_instructions >= 1000

    def test_run_program_adaptive(self, quick_profile):
        result = run_program_adaptive(
            quick_profile, AdaptiveConfigIndices(), window=1000, warmup=2000
        )
        assert result.style == "adaptive_mcd"
        # Whole-program runs never adapt at run time.
        assert not result.configuration_changes

    def test_run_phase_adaptive(self, quick_profile):
        result = run_phase_adaptive(quick_profile, window=2000, warmup=2000)
        assert result.style == "adaptive_mcd"
        assert result.configuration_changes

    def test_same_trace_for_every_machine(self, quick_profile):
        sync = run_synchronous(quick_profile, window=1000, warmup=1000)
        adaptive = run_program_adaptive(
            quick_profile, AdaptiveConfigIndices(), window=1000, warmup=1000
        )
        # Both machines consume the identical deterministic trace; they may
        # differ by the handful of instructions still in flight when the run
        # stops (commit happens in retire-width groups), but not by more.
        assert sync.committed_instructions == pytest.approx(
            adaptive.committed_instructions, abs=16
        )
        assert sync.branch_predictions == pytest.approx(
            adaptive.branch_predictions, rel=0.05, abs=8
        )


class TestSearchAndComparison:
    def test_factored_search_returns_best_of_evaluated(self, quick_profile):
        sweep = program_adaptive_search(quick_profile, window=800, warmup=1500)
        assert sweep.configurations_evaluated >= 10
        best_time = sweep.best_result.execution_time_ps
        assert all(
            best_time <= result.execution_time_ps
            for result in sweep.evaluated.values()
        )
        assert sweep.best_indices in sweep.evaluated

    def test_combine_factored_winners_picks_per_dimension_best(self):
        # Execution times in ps, in the order a factored search evaluates.
        times = {
            AdaptiveConfigIndices(): 100,
            # ic1 and ic2 tie as the fastest I-cache: the first one wins.
            AdaptiveConfigIndices(icache_index=1): 80,
            AdaptiveConfigIndices(icache_index=2): 80,
            AdaptiveConfigIndices(icache_index=3): 90,
            AdaptiveConfigIndices(dcache_index=1): 95,
            AdaptiveConfigIndices(dcache_index=2): 70,
            AdaptiveConfigIndices(dcache_index=3): 110,
            # No integer queue beats the base (one ties it), and every FP
            # queue is slower: both keep the base size.
            AdaptiveConfigIndices(int_queue_size=32): 100,
            AdaptiveConfigIndices(int_queue_size=48): 120,
            AdaptiveConfigIndices(int_queue_size=64): 130,
            AdaptiveConfigIndices(fp_queue_size=32): 105,
            AdaptiveConfigIndices(fp_queue_size=48): 140,
            AdaptiveConfigIndices(fp_queue_size=64): 150,
            # A run varying two structures counts for neither.
            AdaptiveConfigIndices(icache_index=3, dcache_index=3): 10,
        }
        evaluated = {
            indices: RunResult("w", "m", "adaptive_mcd", 1_000, time)
            for indices, time in times.items()
        }
        assert _combine_factored_winners(evaluated) == AdaptiveConfigIndices(
            icache_index=1, dcache_index=2, int_queue_size=16, fp_queue_size=16
        )

    def test_compare_workload_produces_figure6_row(self, quick_profile):
        comparison = compare_workload(quick_profile, window=800, warmup=1500)
        assert comparison.workload == "quick"
        assert isinstance(comparison.program_improvement, float)
        assert isinstance(comparison.phase_improvement, float)
        # Program-adaptive picks the best configuration for this workload, so
        # it can not be worse than an arbitrary fixed adaptive configuration.
        assert comparison.program_adaptive.execution_time_ps <= (
            run_program_adaptive(
                quick_profile, AdaptiveConfigIndices(dcache_index=3),
                window=800, warmup=1500,
            ).execution_time_ps
        )

    def test_average_improvements(self, quick_profile):
        comparison = compare_workload(quick_profile, window=800, warmup=1500)
        program, phase = average_improvements([comparison])
        assert program == pytest.approx(comparison.program_improvement)
        assert phase == pytest.approx(comparison.phase_improvement)
        assert average_improvements([]) == (0.0, 0.0)

    def test_unknown_search_mode_rejected(self, quick_profile):
        with pytest.raises(ValueError):
            program_adaptive_search(quick_profile, mode="guess")


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(("a", "bb"), [(1, 2.5), ("xyz", "w")])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_improvement_table(self, quick_profile):
        comparison = compare_workload(quick_profile, window=800, warmup=1500)
        text = improvement_table([comparison])
        assert "quick" in text
        assert "%" in text
