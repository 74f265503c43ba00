"""Tests for the timing-uncertainty sensitivity driver."""

from __future__ import annotations

import re

import pytest

from repro.analysis import sensitivity
from repro.analysis.sensitivity import (
    AXIS_CACHE_HYSTERESIS,
    AXIS_INTERVAL,
    AXIS_JITTER,
    AXIS_SYNC_WINDOW,
    FULL_GRIDS,
    main,
    sensitivity_sweep,
)
from repro.engine import ExperimentEngine, ResultCache, SerialExecutor
from repro.workloads import WorkloadProfile


@pytest.fixture(scope="module")
def quick_profile() -> WorkloadProfile:
    return WorkloadProfile(
        name="sensitivity-quick", suite="test",
        code_footprint_kb=4.0, inner_window_kb=2.0,
        data_footprint_kb=48.0, hot_data_kb=12.0,
        simulation_window=1_000,
    )


@pytest.fixture(scope="module")
def report(quick_profile):
    return sensitivity_sweep(
        [quick_profile],
        jitter_fractions=(0.05,),
        sync_window_fractions=(0.45,),
        interval_scales=(0.5,),
        cache_hysteresis_values=(0.0,),
        queue_hysteresis_values=(),
        window=700,
        warmup=1_200,
        engine=ExperimentEngine(SerialExecutor(), ResultCache()),
    )


class TestSensitivitySweep:
    def test_grid_structure(self, report, quick_profile):
        assert report.workloads == [quick_profile.name]
        assert [point.axis for point in report.points] == [
            AXIS_JITTER,
            AXIS_SYNC_WINDOW,
            AXIS_INTERVAL,
            AXIS_CACHE_HYSTERESIS,
        ]
        for point in report.points:
            assert len(point.per_workload) == 1
            assert point.per_workload[0].workload == quick_profile.name

    def test_deltas_measured_against_jitter_free_baseline(self, report):
        baseline_row = report.baseline[0]
        for point in report.points:
            cell = point.per_workload[0]
            assert cell.program_delta == pytest.approx(
                cell.program_improvement - baseline_row.program_improvement
            )
            assert cell.phase_delta == pytest.approx(
                cell.phase_improvement - baseline_row.phase_improvement
            )

    def test_jitter_point_actually_changes_the_mcd_runs(self, report):
        jitter_point = report.points_for(AXIS_JITTER)[0]
        baseline_row = report.baseline[0]
        # Jitter must reach the simulation: a perturbed MCD machine cannot be
        # numerically identical to the jitter-free one on both metrics.
        cell = jitter_point.per_workload[0]
        assert (
            cell.program_improvement != baseline_row.program_improvement
            or cell.phase_improvement != baseline_row.phase_improvement
        )

    def test_controller_axis_program_jobs_served_from_cache(self, quick_profile):
        """Controller knobs do not exist on the Program-Adaptive machine, so
        those grid points must reuse the baseline's cached program run."""
        engine = ExperimentEngine(SerialExecutor(), ResultCache())
        sensitivity_sweep(
            [quick_profile],
            jitter_fractions=(),
            sync_window_fractions=(),
            interval_scales=(0.5,),
            cache_hysteresis_values=(),
            queue_hysteresis_values=(),
            window=700,
            warmup=1_200,
            engine=engine,
        )
        assert engine.stats.cache_hits >= 1

    def test_render_mentions_every_axis(self, report):
        text = report.render()
        assert "baseline" in text
        for point in report.points:
            assert point.axis in text

    def test_deterministic_across_engines(self, report, quick_profile):
        again = sensitivity_sweep(
            [quick_profile],
            jitter_fractions=(0.05,),
            sync_window_fractions=(0.45,),
            interval_scales=(0.5,),
            cache_hysteresis_values=(0.0,),
            queue_hysteresis_values=(),
            window=700,
            warmup=1_200,
            engine=ExperimentEngine(SerialExecutor(), ResultCache()),
        )
        for first, second in zip(report.points, again.points):
            assert first.axis == second.axis
            assert first.value == second.value
            assert first.per_workload == second.per_workload


def _unreachable(*args, **kwargs):
    raise AssertionError("bad input reached the simulation")


@pytest.mark.parametrize(
    "grid, value, message",
    [
        pytest.param("interval_scales", 0.0, "interval_scale must be positive", id="scale-0"),
        pytest.param(
            "interval_scales", -2.0, "interval_scale must be positive", id="scale-negative"
        ),
        pytest.param("jitter_fractions", -0.5, "jitter_fraction must be in [0, 0.5)", id="jitter"),
        pytest.param(
            "sync_window_fractions", 1.5, "sync_window_fraction must be in [0, 1)", id="sync-window"
        ),
        pytest.param(
            "cache_hysteresis_values",
            0.7,
            "cache_hysteresis must be in [0, 0.5)",
            id="cache-hysteresis",
        ),
        pytest.param(
            "queue_hysteresis_values",
            0.7,
            "queue_hysteresis must be in [0, 0.5)",
            id="queue-hysteresis",
        ),
    ],
)
def test_bad_grid_value_rejected_before_the_baseline(
    quick_profile, monkeypatch, grid, value, message
):
    monkeypatch.setattr(sensitivity, "compare_workloads", _unreachable)
    grids = {name: () for name in FULL_GRIDS}
    grids[grid] = (value,)
    with pytest.raises(ValueError, match=re.escape(message)):
        sensitivity_sweep([quick_profile], window=700, warmup=1_200, **grids)


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["--jitter", "-0.5"], "jitter_fraction must be in [0, 0.5)", id="jitter"),
        pytest.param(
            ["--sync-window", "1.5"], "sync_window_fraction must be in [0, 1)", id="sync-window"
        ),
        pytest.param(["--interval-scale", "0"], "interval_scale must be positive", id="scale-0"),
        pytest.param(
            ["--interval-scale", "-2"], "interval_scale must be positive", id="scale-negative"
        ),
        pytest.param(
            ["--cache-hysteresis", "0.7"], "cache_hysteresis must be in [0, 0.5)", id="hysteresis"
        ),
        pytest.param(["--workers", "abc"], "workers must be an integer or 'auto'", id="workers"),
        pytest.param(["--workers", "-3"], "workers must not be negative", id="negative-workers"),
        pytest.param(["--workloads", "nosuch"], "unknown workload 'nosuch'", id="workload"),
        pytest.param(["--window", "0"], "--window must be at least 1", id="window"),
        pytest.param(["--warmup", "-1"], "--warmup must not be negative", id="warmup"),
    ],
)
def test_cli_rejects_bad_input_before_simulating(monkeypatch, capsys, tmp_path, argv, message):
    monkeypatch.setattr(sensitivity, "sensitivity_sweep", _unreachable)
    store = tmp_path / "store"
    assert main(["--workloads", "gcc", *argv, "--cache-dir", str(store)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert not store.exists()
