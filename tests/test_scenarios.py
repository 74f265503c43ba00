"""Tests for the scenario campaign subsystem (repro.scenarios)."""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.metrics import ConfigurationChange, RunResult
from repro.engine import (
    ExperimentEngine,
    FINGERPRINT_VERSION,
    ResultCache,
    SerialExecutor,
    run_job,
)
from repro.obs import JsonlSink, TraceRecorder
from repro.obs.events import CONTROLLER_INTERVAL as CONTROLLER_INTERVAL_EVENT
from repro.obs.ledger import summarize_ledgers
from repro.scenarios import (
    ARCHETYPES,
    CONTROLLER_INTERVAL,
    FAMILIES,
    MACHINE_STYLES,
    QUICK_MATRIX_SCENARIOS,
    SCENARIO_SUITE,
    SCENARIOS,
    ScenarioSpec,
    archetype_overrides,
    campaign_jobs,
    count_reconfigurations,
    get_scenario,
    run_campaign,
    scenario_names,
    scenarios_in_family,
)
from repro.scenarios.cli import main as scenarios_main
from repro.workloads import get_workload
from repro.workloads.characteristics import PhaseSpec
from repro.workloads.phases import square_wave

#: Tiny run parameters shared by the campaign integration tests.
TINY_WINDOW = 600
TINY_WARMUP = 800


def tiny_scenario(name: str = "tiny-scn", **kwargs) -> ScenarioSpec:
    defaults = dict(
        family="adversarial",
        overrides={
            "code_footprint_kb": 4.0,
            "inner_window_kb": 2.0,
            "data_footprint_kb": 64.0,
            "hot_data_kb": 16.0,
        },
        phases=square_wave(
            {"hot_data_kb": 8.0}, {"hot_data_kb": 48.0}, period=400
        ),
        simulation_window=2_000,
    )
    defaults.update(kwargs)
    return ScenarioSpec(name=name, **defaults)


class TestScenarioSpec:
    def test_builds_a_validated_profile(self):
        scenario = tiny_scenario()
        profile = scenario.build_profile()
        assert profile.name == "tiny-scn"
        assert profile.suite == SCENARIO_SUITE
        assert profile.simulation_window == 2_000
        assert profile.phases == scenario.phases

    def test_base_profile_derivation(self):
        scenario = ScenarioSpec(
            name="derived", family="paper", base="gcc", simulation_window=5_000
        )
        profile = scenario.build_profile()
        base = get_workload("gcc")
        assert profile.code_footprint_kb == base.code_footprint_kb
        assert profile.simulation_window == 5_000
        assert profile.suite == SCENARIO_SUITE

    def test_empty_name_or_family_rejected(self):
        with pytest.raises(ValueError, match="name"):
            tiny_scenario(name="")
        with pytest.raises(ValueError, match="family"):
            tiny_scenario(family=" ")

    def test_reserved_override_fields_rejected(self):
        with pytest.raises(ValueError, match="spec-level"):
            tiny_scenario(overrides={"name": "sneaky"})
        with pytest.raises(ValueError, match="spec-level"):
            tiny_scenario(overrides={"phases": ()})

    def test_unknown_override_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown profile fields"):
            tiny_scenario(overrides={"no_such_field": 1})

    def test_out_of_range_phase_overrides_rejected_at_construction(self):
        # ScenarioSpec construction runs WorkloadProfile.validate, so an
        # effective per-phase value out of range fails at definition time.
        with pytest.raises(ValueError, match="hot_data_fraction"):
            tiny_scenario(
                phases=(PhaseSpec(length=100, overrides={"hot_data_fraction": 1.5}),)
            )
        with pytest.raises(ValueError, match="cannot exceed"):
            tiny_scenario(
                phases=(PhaseSpec(length=100, overrides={"hot_data_kb": 4096.0}),)
            )

    def test_dict_round_trip(self):
        scenario = tiny_scenario()
        rebuilt = ScenarioSpec.from_dict(scenario.to_dict())
        assert rebuilt == scenario
        assert rebuilt.build_profile() == scenario.build_profile()

    def test_json_round_trip(self):
        scenario = tiny_scenario()
        rebuilt = ScenarioSpec.from_json(scenario.to_json())
        assert rebuilt == scenario

    def test_from_dict_rejects_unknown_keys(self):
        payload = tiny_scenario().to_dict()
        payload["surprise"] = 1
        with pytest.raises(ValueError, match="unknown ScenarioSpec fields"):
            ScenarioSpec.from_dict(payload)

    def test_pickle_round_trip(self):
        scenario = tiny_scenario()
        assert pickle.loads(pickle.dumps(scenario)) == scenario

    def test_phase_program_length(self):
        assert tiny_scenario().phase_program_length == 400
        assert tiny_scenario(phases=()).phase_program_length == 0


class TestArchetypes:
    def test_every_archetype_builds_a_valid_scenario(self):
        for kind in ARCHETYPES:
            ScenarioSpec(
                name=f"probe-{kind}",
                family="archetype",
                overrides=archetype_overrides(kind),
            ).build_profile()

    def test_parameterisation_reaches_the_profile(self):
        overrides = archetype_overrides("pointer_chasing", footprint_kb=2048.0)
        assert overrides["data_footprint_kb"] == 2048.0

    def test_unknown_archetype_rejected(self):
        with pytest.raises(ValueError, match="unknown archetype"):
            archetype_overrides("quantum")


class TestLibrary:
    def test_library_size_and_uniqueness(self):
        names = scenario_names()
        assert len(names) >= 20
        assert len(set(names)) == len(names)

    def test_every_scenario_builds(self):
        for scenario in SCENARIOS.values():
            profile = scenario.build_profile()
            assert profile.name == scenario.name

    def test_all_families_populated(self):
        for family in FAMILIES:
            assert scenarios_in_family(family)

    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError):
            scenarios_in_family("nope")

    def test_get_scenario_round_trip_and_unknown(self):
        assert get_scenario(scenario_names()[0]) is next(iter(SCENARIOS.values()))
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("does-not-exist")

    def test_quick_matrix_subset_is_resolvable_and_large_enough(self):
        assert len(QUICK_MATRIX_SCENARIOS) >= 16
        for name in QUICK_MATRIX_SCENARIOS:
            get_scenario(name)

    def test_period_family_straddles_the_controller_interval(self):
        periods = [
            get_scenario(f"adv-period-{label}-interval").phase_program_length
            for label in ("half", "1x", "2x", "4x")
        ]
        assert periods == sorted(periods)
        assert periods[0] < CONTROLLER_INTERVAL <= periods[1]
        assert periods[-1] == 4 * CONTROLLER_INTERVAL

    def test_hysteresis_pairs_share_everything_but_the_swing(self):
        inside = get_scenario("adv-hysteresis-inside-cache")
        outside = get_scenario("adv-hysteresis-outside-cache")
        assert inside.phase_program_length == outside.phase_program_length
        inside_swing = [p.overrides["hot_data_kb"] for p in inside.phases]
        outside_swing = [p.overrides["hot_data_kb"] for p in outside.phases]
        assert max(inside_swing) - min(inside_swing) < max(outside_swing) - min(
            outside_swing
        )


class TestCountReconfigurations:
    @staticmethod
    def _result(changes) -> RunResult:
        return RunResult(
            workload="w",
            machine="m",
            style="phase_adaptive",
            committed_instructions=1,
            execution_time_ps=1,
            configuration_changes=[
                ConfigurationChange(
                    committed_instructions=i,
                    time_ps=i,
                    domain="d",
                    structure=structure,
                    configuration=str(index),
                    index=index,
                )
                for i, (structure, index) in enumerate(changes)
            ],
        )

    def test_interval_confirmations_are_not_reconfigurations(self):
        # The cache controllers record a decision every interval even when
        # the configuration is unchanged.
        result = self._result([("dcache", 0), ("dcache", 0), ("dcache", 0)])
        assert count_reconfigurations(result) == {}

    def test_transitions_are_counted_per_structure(self):
        result = self._result(
            [("dcache", 0), ("dcache", 2), ("dcache", 2), ("dcache", 0), ("icache", 1)]
        )
        assert count_reconfigurations(result) == {"dcache": 2, "icache": 1}

    def test_first_queue_record_counts_against_the_base_size(self):
        # Queue records only exist for actual resizings; leaving the 16-entry
        # base is itself a reconfiguration.
        result = self._result([("int-queue", 64), ("int-queue", 16)])
        assert count_reconfigurations(result) == {"int-queue": 2}


class TestCampaign:
    def _engine(self, tmp_path=None) -> ExperimentEngine:
        cache = ResultCache(tmp_path) if tmp_path is not None else ResultCache()
        return ExperimentEngine(SerialExecutor(), cache)

    def test_rows_follow_scenario_order(self):
        scenarios = [tiny_scenario("scn-a"), tiny_scenario("scn-b")]
        result = run_campaign(
            scenarios, window=TINY_WINDOW, warmup=TINY_WARMUP, engine=self._engine()
        )
        assert [row.scenario.name for row in result.rows] == ["scn-a", "scn-b"]
        assert result.simulations > 0
        for row in result.rows:
            assert row.comparison.synchronous.committed_instructions > 0
            assert row.comparison.phase_adaptive.committed_instructions > 0

    def test_duplicate_scenario_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            run_campaign([tiny_scenario("dup"), tiny_scenario("dup")])

    def test_rerun_is_served_entirely_from_the_cache(self, tmp_path):
        scenarios = [tiny_scenario("scn-cached")]
        first = run_campaign(
            scenarios,
            window=TINY_WINDOW,
            warmup=TINY_WARMUP,
            engine=self._engine(tmp_path),
        )
        assert first.simulations > 0
        # A fresh engine over the same disk cache: no re-simulation at all.
        second = run_campaign(
            scenarios,
            window=TINY_WINDOW,
            warmup=TINY_WARMUP,
            engine=self._engine(tmp_path),
        )
        assert second.simulations == 0
        assert second.cache_hits > 0
        assert [row.to_dict() for row in second.rows] == [
            row.to_dict() for row in first.rows
        ]

    def test_render_and_to_dict(self):
        result = run_campaign(
            [tiny_scenario("scn-render")],
            window=TINY_WINDOW,
            warmup=TINY_WARMUP,
            engine=self._engine(),
        )
        rendered = result.render()
        assert "scn-render" in rendered
        assert "reconf" in rendered
        payload = result.to_dict()
        assert payload["machine_styles"] == list(MACHINE_STYLES)
        assert payload["rows"][0]["scenario"] == "scn-render"
        # The row payload is JSON-serialisable as-is.
        json.dumps(payload)
        assert result.row_for("scn-render").scenario.name == "scn-render"
        with pytest.raises(KeyError):
            result.row_for("missing")


class TestCli:
    def test_list_renders_every_scenario(self, capsys):
        assert scenarios_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    @pytest.mark.parametrize(
        "command",
        [
            ["repro.scenarios", "list"],
            ["repro.obs", "timeline", "{trace}"],
            ["repro.obs", "diff", "{trace}", "{trace}"],
            ["repro.engine", "inspect", "{store}"],
            ["repro.analysis.hardware_cost"],
            ["repro.cli_reference"],
        ],
        ids=lambda command: "-".join(command[:2]).removeprefix("repro."),
    )
    def test_closed_stdout_pipe_ends_without_a_traceback(self, command, tmp_path):
        # A reader that has stopped reading (``... | head``) ends the CLI
        # quietly with exit 1, however little it printed.
        trace = tmp_path / "trace.jsonl"
        with TraceRecorder([JsonlSink(trace, meta={"job": "closed-pipe"})]) as recorder:
            recorder.emit(
                CONTROLLER_INTERVAL_EVENT,
                1_000,
                500,
                structure="dcache",
                configurations=["a", "b", "c"],
                best_index=2,
            )
        (tmp_path / "store").mkdir()
        arguments = [part.format(trace=trace, store=tmp_path / "store") for part in command]
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            completed = subprocess.run(
                [sys.executable, "-m", *arguments],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=dict(os.environ, PYTHONPATH=path),
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in completed.stderr
        assert "BrokenPipeError" not in completed.stderr
        assert completed.returncode == 1

    def test_list_family_filter_and_json(self, capsys):
        assert scenarios_main(["list", "--family", "adversarial", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload
        assert all(item["family"] == "adversarial" for item in payload)

    def test_describe(self, capsys):
        assert scenarios_main(["describe", "adv-period-1x-interval"]) == 0
        out = capsys.readouterr().out
        assert "adv-period-1x-interval" in out
        assert "phase program" in out

    def test_describe_json_round_trips(self, capsys):
        assert scenarios_main(["describe", "arch-mixed", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert ScenarioSpec.from_dict(payload) == get_scenario("arch-mixed")

    def test_describe_unknown_scenario_fails(self, capsys):
        assert scenarios_main(["describe", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_single_scenario(self, capsys):
        code = scenarios_main(
            [
                "run",
                "adv-period-1x-interval",
                "--window",
                str(TINY_WINDOW),
                "--warmup",
                str(TINY_WARMUP),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "adv-period-1x-interval" in out
        assert "3 machine styles" in out

    def test_matrix_json_with_explicit_scenarios(self, capsys):
        code = scenarios_main(
            [
                "matrix",
                "--scenarios",
                "arch-mixed",
                "--window",
                str(TINY_WINDOW),
                "--warmup",
                str(TINY_WARMUP),
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["scenario"] for row in payload["rows"]] == ["arch-mixed"]
        assert payload["simulations"] > 0

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["run", "nosuch"], "unknown scenario", id="run-unknown"),
            pytest.param(
                ["matrix", "--scenarios", "arch-mixed", "nosuch"],
                "unknown scenario",
                id="matrix-unknown",
            ),
            pytest.param(
                ["matrix", "--scenarios", "arch-mixed", "--family", "adversarial"],
                "no scenarios selected",
                id="empty-selection",
            ),
            pytest.param(
                ["matrix", "--quick", "--heartbeat", "-1"],
                "--heartbeat must be positive",
                id="negative-heartbeat",
            ),
            pytest.param(
                ["matrix", "--quick", "--heartbeat", "0"],
                "--heartbeat must be positive",
                id="zero-heartbeat",
            ),
            pytest.param(
                ["matrix", "--quick", "--heartbeat", "nan"],
                "--heartbeat must be positive",
                id="nan-heartbeat",
            ),
            pytest.param(
                ["matrix", "--quick", "--workers", "abc"],
                "workers must be an integer or 'auto'",
                id="word-workers",
            ),
            pytest.param(
                ["run", "arch-mixed", "--workers", "2.5"],
                "workers must be an integer or 'auto'",
                id="fractional-workers",
            ),
            pytest.param(
                ["matrix", "--quick", "--workers", "-3", "--scenarios", "arch-mixed"],
                "workers must not be negative",
                id="negative-workers",
            ),
            pytest.param(
                ["run", "arch-mixed", "--window", "0"],
                "--window must be at least 1",
                id="zero-window",
            ),
            pytest.param(
                ["matrix", "--quick", "--warmup", "-1"],
                "--warmup must not be negative",
                id="negative-warmup",
            ),
            pytest.param(
                ["matrix", "--quick", "--resume"],
                "--resume requires --cache-dir",
                id="resume-without-store",
            ),
        ],
    )
    def test_bad_input_is_rejected_before_any_file_is_created(
        self, argv, message, tmp_path, capsys
    ):
        argv = [*argv, "--ledger", str(tmp_path / "ledgers")]
        if "--resume" not in argv:
            argv += ["--cache-dir", str(tmp_path / "store")]
        assert scenarios_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        assert list(tmp_path.iterdir()) == []

    def test_matrix_resume_completes_a_partial_store_then_serves_it(self, tmp_path, capsys):
        """Resuming a larger selection simulates only what the store lacks;
        resuming again simulates nothing.

        Every session appends to the one command ledger, which fuses the
        three sessions' work.
        """
        names = ["arch-mixed", "adv-period-2x-interval"]
        planned = _planned(names)
        cached = _planned(names[:1])
        assert 0 < cached < planned
        ledger_dir = tmp_path / "ledgers"
        options = ["--ledger", str(ledger_dir), *_tiny_store_args(tmp_path / "store")]

        assert scenarios_main(["matrix", "--scenarios", names[0], *options]) == 0
        capsys.readouterr()
        resume = ["matrix", "--scenarios", *names, "--resume", *options]
        assert scenarios_main([*resume, "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert f"resume: {cached} of {planned} planned job(s)" in out
        assert f"({planned - cached} simulations, {cached} cache hits" in out
        assert scenarios_main(resume) == 0
        out = capsys.readouterr().out
        assert f"resume: {planned} of {planned} planned job(s)" in out
        assert f"(0 simulations, {planned} cache hits" in out

        assert [path.name for path in ledger_dir.iterdir()] == ["matrix.ledger.jsonl"]
        summary = summarize_ledgers([ledger_dir])
        assert summary.batches == 3
        assert summary.simulations == planned
        assert summary.cache_hits == cached + planned
        assert summary.executor_modes == {"serial", "parallel"}
        assert {job["fingerprint"] for job in summary.jobs} == {
            job.fingerprint() for job in _tiny_jobs(names)
        }
        assert summary.work()["committed_instructions"] >= planned * TINY_WINDOW

    def test_each_command_writes_its_own_ledger(self, tmp_path, capsys):
        """`run NAME` and `matrix` share a --ledger DIR without colliding, and
        summarizing the directory fuses the two files."""
        names = ["arch-mixed", "adv-period-2x-interval"]
        ledger_dir = tmp_path / "ledgers"
        options = ["--ledger", str(ledger_dir), *_tiny_store_args(tmp_path / "store")]
        assert scenarios_main(["run", names[0], *options]) == 0
        assert scenarios_main(["matrix", "--scenarios", *names, *options]) == 0
        capsys.readouterr()
        files = sorted(path.name for path in ledger_dir.iterdir())
        assert files == ["matrix.ledger.jsonl", "run-arch-mixed.ledger.jsonl"]
        cached = _planned(names[:1])
        planned = _planned(names)
        run_summary = summarize_ledgers([ledger_dir / "run-arch-mixed.ledger.jsonl"])
        assert (run_summary.simulations, run_summary.cache_hits) == (cached, 0)
        # The matrix found every job in the store the run filled.
        matrix_summary = summarize_ledgers([ledger_dir / "matrix.ledger.jsonl"])
        assert (matrix_summary.simulations, matrix_summary.cache_hits) == (
            planned - cached,
            cached,
        )

        fused = summarize_ledgers([ledger_dir])
        assert fused.ledgers == 2
        for name in ("batches", "simulations", "cache_hits"):
            total = getattr(run_summary, name) + getattr(matrix_summary, name)
            assert getattr(fused, name) == total
        run_work, matrix_work = run_summary.work(), matrix_summary.work()
        summed = {name: run_work[name] + matrix_work[name] for name in run_work}
        assert fused.work() == pytest.approx(summed)
        assert fused.work()["processed_edges"] > run_work["processed_edges"] > 0

    @pytest.mark.parametrize(
        "command",
        [
            ["run", "arch-mixed"],
            ["matrix", "--scenarios", "arch-mixed"],
            ["matrix", "--scenarios", "arch-mixed", "--resume"],
        ],
        ids=["run", "matrix", "matrix-resume"],
    )
    def test_stale_store_is_an_error_naming_both_versions(self, command, tmp_path, capsys):
        job = _tiny_jobs(["arch-mixed"])[0]
        ResultCache(tmp_path).put(job.fingerprint(), run_job(job))
        path = tmp_path / f"{job.fingerprint()}.json"
        data = json.loads(path.read_text())
        data["version"] = FINGERPRINT_VERSION - 1
        path.write_text(json.dumps(data))

        assert scenarios_main([*command, *_tiny_store_args(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
        assert f"FINGERPRINT_VERSION {FINGERPRINT_VERSION - 1}" in err
        assert f"FINGERPRINT_VERSION {FINGERPRINT_VERSION}" in err


def _tiny_store_args(store) -> list[str]:
    """Tiny-window run options against the store *store*."""
    return [
        "--window",
        str(TINY_WINDOW),
        "--warmup",
        str(TINY_WARMUP),
        "--cache-dir",
        str(store),
    ]


def _tiny_jobs(names):
    """The planned jobs of a tiny-window run or matrix over *names*."""
    scenarios = [get_scenario(name) for name in names]
    return campaign_jobs(scenarios, window=TINY_WINDOW, warmup=TINY_WARMUP)


def _planned(names) -> int:
    """How many distinct jobs a tiny-window matrix over *names* plans."""
    return len({job.fingerprint() for job in _tiny_jobs(names)})
