"""Tests for run records and derived metrics."""

import pytest

from repro.analysis import (
    ConfigurationChange,
    RunResult,
    relative_improvement,
)


def make_result(time_ps=1_000_000, instructions=1000, **overrides):
    base = dict(
        workload="test",
        machine="machine",
        style="synchronous",
        committed_instructions=instructions,
        execution_time_ps=time_ps,
        domain_cycles={"front_end": 2000, "integer": 2000,
                       "floating_point": 2000, "load_store": 2000},
    )
    base.update(overrides)
    return RunResult(**base)


class TestRunResult:
    def test_time_conversions(self):
        result = make_result(time_ps=2_500_000)
        assert result.execution_time_us == pytest.approx(2.5)
        assert result.execution_time_ns == pytest.approx(2500.0)

    def test_ipc_and_throughput(self):
        result = make_result(time_ps=1_000_000, instructions=1000)
        assert result.front_end_ipc == pytest.approx(0.5)

    def test_rates_handle_zero_denominators(self):
        result = make_result()
        assert result.branch_misprediction_rate == 0.0
        assert result.l1d_miss_rate == 0.0
        assert result.icache_miss_rate == 0.0

    def test_rates(self):
        result = make_result(
            branch_predictions=100, branch_mispredictions=5,
            loads=200, stores=100, l1d_misses=30,
            icache_accesses=50, icache_misses=10,
        )
        assert result.branch_misprediction_rate == pytest.approx(0.05)
        assert result.l1d_miss_rate == pytest.approx(0.1)
        assert result.icache_miss_rate == pytest.approx(0.2)

    def test_improvement_over(self):
        slow = make_result(time_ps=2_000_000)
        fast = make_result(time_ps=1_000_000)
        assert fast.improvement_over(slow) == pytest.approx(1.0)
        assert slow.improvement_over(fast) == pytest.approx(-0.5)

    def test_summary_contains_key_numbers(self):
        result = make_result()
        text = result.summary()
        assert "test" in text and "ipc" in text

    def test_configuration_changes_recorded(self):
        change = ConfigurationChange(
            committed_instructions=500, time_ps=123, domain="load_store",
            structure="dcache", configuration="64k2W/512k2W", index=1,
        )
        result = make_result(configuration_changes=[change])
        assert result.configuration_changes[0].structure == "dcache"


class TestImprovementHelpers:
    def test_relative_improvement_normalises_different_windows(self):
        baseline = make_result(time_ps=2_000_000, instructions=1000)
        candidate = make_result(time_ps=1_500_000, instructions=750)
        # Same time per instruction: no improvement.
        assert relative_improvement(baseline, candidate) == pytest.approx(0.0)

    def test_relative_improvement_rejects_bad_candidate(self):
        baseline = make_result()
        broken = make_result(time_ps=0)
        with pytest.raises(ValueError):
            relative_improvement(baseline, broken)
