"""Tests for the repro.bench benchmark/regression subsystem."""

from __future__ import annotations

import json

import pytest

from repro.bench.baseline import (
    DEFAULT_TOLERANCE,
    compare_entries,
    load_baseline,
    save_baseline,
)
from repro.bench.cli import main as bench_main
from repro.bench.environment import EnvironmentFingerprint
from repro.bench.recording import append_entry, latest_entry, load_history
from repro.bench.schema import SCHEMA_VERSION, BenchEntry, BenchRun, validate_entry
from repro.bench.timer import calibrate, timed
from repro.obs.records import RecordFileError


def make_entry(seconds=10.0, *, suite="sweep", normalized=100.0, env=None, parameters=None):
    return BenchEntry(
        suite=suite,
        environment=env if env is not None else EnvironmentFingerprint.collect(),
        calibration_seconds=0.1,
        parameters=parameters if parameters is not None else {"quick": True, "window": 2000},
        runs=[
            BenchRun(
                name="figure6_sweep_serial",
                seconds=seconds,
                normalized=normalized,
                simulations=61,
            )
        ],
    )


def other_environment():
    return EnvironmentFingerprint(
        python_version="3.999.0",
        python_implementation="CPython",
        system="Linux",
        machine="x86_64",
        cpu_model="Imaginary CPU @ 9.9GHz",
        cpu_count=128,
    )


class TestEnvironmentFingerprint:
    def test_collect_is_stable(self):
        assert EnvironmentFingerprint.collect() == EnvironmentFingerprint.collect()

    def test_comparable_key_is_stable(self):
        first = EnvironmentFingerprint.collect()
        second = EnvironmentFingerprint.collect()
        assert first.comparable_key() == second.comparable_key()
        assert first.is_comparable_to(second)

    def test_different_hosts_are_not_comparable(self):
        assert not EnvironmentFingerprint.collect().is_comparable_to(other_environment())

    def test_round_trip(self):
        fingerprint = EnvironmentFingerprint.collect()
        assert EnvironmentFingerprint.from_dict(fingerprint.to_dict()) == fingerprint

    def test_from_dict_rejects_missing_fields(self):
        with pytest.raises(ValueError, match="missing fields"):
            EnvironmentFingerprint.from_dict({"python_version": "3.11.0"})


class TestSchema:
    def test_entry_round_trip(self):
        entry = make_entry(12.345)
        rebuilt = BenchEntry.from_dict(entry.to_dict())
        assert rebuilt.to_dict() == entry.to_dict()
        assert rebuilt.suite == "sweep"
        assert rebuilt.runs[0].name == "figure6_sweep_serial"
        assert rebuilt.runs[0].seconds == pytest.approx(12.345, abs=1e-3)

    def test_entry_round_trip_survives_json(self):
        entry = make_entry(3.21)
        rebuilt = BenchEntry.from_dict(json.loads(json.dumps(entry.to_dict())))
        assert rebuilt.to_dict() == entry.to_dict()

    def test_validate_rejects_missing_keys(self):
        payload = make_entry().to_dict()
        del payload["environment"]
        with pytest.raises(ValueError, match="missing keys"):
            validate_entry(payload)

    def test_validate_rejects_newer_schema(self):
        payload = make_entry().to_dict()
        payload["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="newer than supported"):
            validate_entry(payload)

    def test_validate_rejects_negative_seconds(self):
        payload = make_entry().to_dict()
        payload["runs"][0]["seconds"] = -1.0
        with pytest.raises(ValueError, match="negative seconds"):
            validate_entry(payload)

    def test_entry_helpers(self):
        entry = make_entry(2.0)
        assert entry.total_seconds == pytest.approx(2.0)
        assert entry.run_named("figure6_sweep_serial") is entry.runs[0]
        assert entry.run_named("nope") is None


class TestRegressionDetection:
    def test_no_regression_just_below_tolerance(self):
        baseline = make_entry(10.0)
        current = make_entry(10.0 * (1 + DEFAULT_TOLERANCE) - 0.01)
        assert compare_entries(current, baseline) == []

    def test_regression_fires_just_above_tolerance(self):
        baseline = make_entry(10.0)
        current = make_entry(10.0 * (1 + DEFAULT_TOLERANCE) + 0.01)
        regressions = compare_entries(current, baseline)
        assert len(regressions) == 1
        assert regressions[0].metric == "seconds"
        assert regressions[0].ratio > 1 + DEFAULT_TOLERANCE
        assert "REGRESSION" not in regressions[0].describe()  # describe is the detail line

    def test_exactly_at_tolerance_does_not_fire(self):
        baseline = make_entry(10.0)
        current = make_entry(10.0 * (1 + DEFAULT_TOLERANCE))
        assert compare_entries(current, baseline) == []

    def test_custom_tolerance(self):
        baseline = make_entry(10.0)
        current = make_entry(10.4)
        assert compare_entries(current, baseline, tolerance=0.05) == []
        assert len(compare_entries(current, baseline, tolerance=0.03)) == 1

    def test_incomparable_environments_use_normalized_metric(self):
        # Same raw seconds would regress, but the normalised metric improved:
        # no regression is reported for a faster-host baseline.
        baseline = make_entry(5.0, normalized=100.0, env=other_environment())
        current = make_entry(20.0, normalized=90.0)
        assert compare_entries(current, baseline) == []
        # And a normalised slow-down fires even when raw seconds improved.
        current = make_entry(1.0, normalized=150.0)
        regressions = compare_entries(current, baseline)
        assert len(regressions) == 1
        assert regressions[0].metric == "normalized"

    def test_mismatched_parameters_are_rejected(self):
        baseline = make_entry(10.0, parameters={"quick": True, "window": 2000})
        current = make_entry(10.0, parameters={"quick": False, "window": 6000})
        with pytest.raises(ValueError, match="parameters differ"):
            compare_entries(current, baseline)

    def test_runs_missing_from_baseline_are_ignored(self):
        baseline = make_entry(10.0)
        current = make_entry(10.0)
        current.runs.append(BenchRun(name="brand_new_bench", seconds=99.0, normalized=9e9))
        assert compare_entries(current, baseline) == []


class TestRecordingAndBaseline:
    def test_append_and_load_history(self, tmp_path):
        path = tmp_path / "BENCH_sweep.json"
        append_entry(path, make_entry(1.0))
        append_entry(path, make_entry(2.0))
        history = load_history(path)
        assert list(history) == ["sweep"]
        assert len(history["sweep"]) == 2
        newest = latest_entry(path, "sweep")
        assert newest is not None
        assert newest.runs[0].seconds == pytest.approx(2.0)

    def test_history_limit_drops_oldest(self, tmp_path):
        path = tmp_path / "BENCH_sweep.json"
        for index in range(5):
            append_entry(path, make_entry(float(index)), limit=3)
        history = load_history(path)["sweep"]
        assert len(history) == 3
        assert history[0]["runs"][0]["seconds"] == pytest.approx(2.0)

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    def test_corrupt_history_raises_and_is_left_untouched(self, tmp_path, capsys, text):
        path = tmp_path / "BENCH_sweep.json"
        path.write_text(text)
        with pytest.raises(RecordFileError, match="BENCH_sweep.json"):
            load_history(path)
        with pytest.raises(RecordFileError):
            append_entry(path, make_entry(1.0))
        assert path.read_text() == text
        assert bench_main(["history", "--output-dir", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err
        assert load_history(tmp_path / "BENCH_absent.json") == {}

    def test_baseline_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        entries = {"sweep": make_entry(3.0), "fig6": make_entry(1.0, suite="fig6")}
        save_baseline(path, entries)
        loaded = load_baseline(path)
        assert set(loaded) == {"fig6", "sweep"}
        assert loaded["sweep"].to_dict() == entries["sweep"].to_dict()

    def test_missing_baseline_loads_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == {}


class TestTimer:
    def test_timed_returns_result_and_elapsed(self):
        result, seconds = timed(sum, range(1000))
        assert result == sum(range(1000))
        assert seconds >= 0.0

    def test_calibration_is_positive_and_repeatable_order_of_magnitude(self):
        first = calibrate(repeats=2)
        second = calibrate(repeats=2)
        assert first > 0 and second > 0
        # Same host, same kernel: within a generous factor of each other.
        assert 0.2 < first / second < 5.0
