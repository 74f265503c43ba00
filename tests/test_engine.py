"""Tests for the parallel experiment engine (jobs, executors, cache)."""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

from repro.analysis.metrics import ConfigurationChange, RunResult
from repro.analysis.sweep import (
    compare_workload,
    compare_workloads,
    phase_adaptive_job,
    program_adaptive_search,
    run_synchronous,
)
from repro.clocks.clock import clear_edge_tables
from repro.core.configuration import AdaptiveConfigIndices, best_overall_synchronous_spec
from repro.core.controllers.params import AdaptiveControlParams
from repro.core.processor import MCDProcessor
from repro.engine import (
    CacheVersionError,
    ExperimentEngine,
    FINGERPRINT_VERSION,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    SimulationJob,
    SpecKind,
    canonical_payload,
    make_engine,
    make_trace,
    run_job,
)
from repro.engine.cli import inspect_store
from repro.engine.cli import main as engine_main
from repro.scenarios.spec import ScenarioSpec
from repro.workloads import PhaseSpec, WorkloadProfile, full_suite, get_workload


@pytest.fixture(scope="module")
def quick_profile() -> WorkloadProfile:
    return WorkloadProfile(
        name="engine-quick", suite="test",
        code_footprint_kb=4.0, inner_window_kb=2.0,
        data_footprint_kb=48.0, hot_data_kb=12.0,
        simulation_window=1_000,
    )


def _jobs(profile: WorkloadProfile) -> list[SimulationJob]:
    common = dict(profile=profile, window=700, warmup=1200)
    return [
        SimulationJob(spec_kind=SpecKind.BEST_SYNCHRONOUS, **common),
        SimulationJob(
            spec_kind=SpecKind.ADAPTIVE, indices=AdaptiveConfigIndices(1, 0, 16, 16), **common
        ),
        SimulationJob(
            spec_kind=SpecKind.BASE_ADAPTIVE,
            use_b_partitions=True,
            phase_adaptive=True,
            **common,
        ),
        SimulationJob(
            spec_kind=SpecKind.SYNCHRONOUS, indices=AdaptiveConfigIndices(2, 1, 32, 16), **common
        ),
    ]


#: Every engine data-plane type, as (example factory, fingerprinted, persisted).
#: Fingerprinted types feed ``canonical_payload``; persisted ones are stored
#: through ``to_dict``/``from_dict`` by the result cache or scenario files.
DATA_PLANE = {
    "SimulationJob": (
        lambda: SimulationJob(
            profile=get_workload("gcc"),
            window=2_000,
            warmup=1_000,
            phase_adaptive=True,
            control_overrides={"cache_hysteresis": 0.1},
            jitter_fraction=0.05,
        ),
        True,
        False,
    ),
    "WorkloadProfile": (lambda: get_workload("apsi"), True, True),
    "PhaseSpec": (lambda: PhaseSpec(length=4_000, overrides={"load_fraction": 0.4}), True, True),
    "AdaptiveConfigIndices": (lambda: AdaptiveConfigIndices(1, 2, 32, 64), True, False),
    "MachineSpec": (lambda: SimulationJob(profile=get_workload("gcc")).build_spec(), True, False),
    "AdaptiveControlParams": (
        lambda: AdaptiveControlParams(interval_instructions=2_500),
        True,
        False,
    ),
    "ConfigurationChange": (
        lambda: ConfigurationChange(100, 42, "load_store", "dcache", "dc1", 1),
        False,
        True,
    ),
    "RunResult": (
        lambda: RunResult(
            workload="gcc",
            machine="phase_adaptive",
            style="mcd_adaptive",
            committed_instructions=1_000,
            execution_time_ps=123_456,
            domain_cycles={"front_end": 10, "integer": 12},
            final_frequencies_ghz={"front_end": 1.0},
            cache_access_profile={"l1d": {"1": 3, "4": 2}},
            configuration_changes=[
                ConfigurationChange(500, 1_000, "integer", "int_queue", "iq32", 1)
            ],
            horizon_skipped_edges=7,
        ),
        False,
        True,
    ),
    "ScenarioSpec": (
        lambda: ScenarioSpec(
            name="contract-example",
            family="contract",
            description="data-plane contract example",
            base="gcc",
            overrides={"load_fraction": 0.31},
            phases=(PhaseSpec(length=3_000),),
        ),
        False,
        True,
    ),
}


class TestSerialization:
    @pytest.mark.parametrize("make, fingerprinted, persisted", DATA_PLANE.values(), ids=DATA_PLANE)
    def test_data_plane_contract(self, make, fingerprinted, persisted):
        """Executors pickle these types across processes and stores persist
        them, so both trips must be lossless; all but the incrementally filled
        RunResult are frozen, so a value cannot change after being hashed."""
        example = make()
        cls = type(example)
        assert dataclasses.is_dataclass(cls)
        assert cls is RunResult or cls.__dataclass_params__.frozen
        if fingerprinted:
            json.dumps(canonical_payload(example), sort_keys=True)
        assert pickle.loads(pickle.dumps(example)) == example
        if persisted:
            assert cls.from_dict(json.loads(json.dumps(example.to_dict()))) == example

    def test_phase_spec_pickle_roundtrip(self):
        phase = PhaseSpec(length=500, overrides={"load_fraction": 0.3})
        clone = pickle.loads(pickle.dumps(phase))
        assert clone == phase
        assert dict(clone.overrides) == {"load_fraction": 0.3}

    def test_every_suite_profile_is_picklable(self):
        for profile in full_suite():
            clone = pickle.loads(pickle.dumps(profile))
            assert clone == profile

    def test_workload_profile_dict_roundtrip(self):
        profile = WorkloadProfile(
            name="rt", suite="test",
            phases=(PhaseSpec(length=400, overrides={"fp_fraction": 0.5}),),
        )
        assert WorkloadProfile.from_dict(profile.to_dict()) == profile

    @pytest.mark.parametrize("kind", list(SpecKind))
    def test_job_indices_must_fit_the_spec_kind(self, quick_profile, kind):
        # Sixteen synchronous I-cache configurations, four adaptive ones.
        indices = AdaptiveConfigIndices(icache_index=4)
        if kind in (SpecKind.ADAPTIVE, SpecKind.BASE_ADAPTIVE):
            with pytest.raises(ValueError, match=r"icache_index must be in \[0, 3\]"):
                SimulationJob(profile=quick_profile, spec_kind=kind, indices=indices)
        else:
            job = SimulationJob(profile=quick_profile, spec_kind=kind, indices=indices)
            assert job.build_spec().icache.name

    def test_run_result_dict_roundtrip(self, quick_profile):
        result = run_job(_jobs(quick_profile)[2])  # phase-adaptive: has changes
        assert result.configuration_changes
        assert RunResult.from_dict(result.to_dict()) == result


class TestFingerprint:
    def test_stable_across_equal_jobs(self, quick_profile):
        a, b = _jobs(quick_profile)[0], _jobs(quick_profile)[0]
        assert a is not b
        assert a.fingerprint() == b.fingerprint()

    def test_resolved_defaults_share_fingerprint(self, quick_profile):
        implicit = SimulationJob(profile=quick_profile, spec_kind=SpecKind.BEST_SYNCHRONOUS)
        explicit = SimulationJob(
            profile=quick_profile,
            spec_kind=SpecKind.BEST_SYNCHRONOUS,
            window=quick_profile.simulation_window,
        )
        assert implicit.fingerprint() == explicit.fingerprint()

    def test_equivalent_recipes_share_fingerprint(self, quick_profile):
        # The fingerprint hashes the fully built MachineSpec, so different
        # recipes for the same machine dedup against each other.
        implicit_base = SimulationJob(profile=quick_profile, spec_kind=SpecKind.ADAPTIVE)
        explicit_base = SimulationJob(
            profile=quick_profile,
            spec_kind=SpecKind.ADAPTIVE,
            indices=AdaptiveConfigIndices(0, 0, 16, 16),
        )
        assert implicit_base.fingerprint() == explicit_base.fingerprint()

        best = SimulationJob(profile=quick_profile, spec_kind=SpecKind.BEST_SYNCHRONOUS)
        explicit_best = SimulationJob(
            profile=quick_profile,
            spec_kind=SpecKind.SYNCHRONOUS,
            indices=best.build_spec().indices,
        )
        assert best.fingerprint() == explicit_best.fingerprint()

    def test_sensitive_to_every_dimension(self, quick_profile):
        base = SimulationJob(profile=quick_profile, spec_kind=SpecKind.BEST_SYNCHRONOUS)
        variants = [
            SimulationJob(profile=quick_profile, spec_kind=SpecKind.BASE_ADAPTIVE),
            SimulationJob(
                profile=quick_profile, spec_kind=SpecKind.BEST_SYNCHRONOUS, window=555
            ),
            SimulationJob(
                profile=quick_profile, spec_kind=SpecKind.BEST_SYNCHRONOUS, trace_seed=7
            ),
            SimulationJob(
                profile=quick_profile, spec_kind=SpecKind.BEST_SYNCHRONOUS, seed=3
            ),
            SimulationJob(
                profile=quick_profile.with_overrides(load_fraction=0.30),
                spec_kind=SpecKind.BEST_SYNCHRONOUS,
            ),
        ]
        fingerprints = {base.fingerprint()} | {v.fingerprint() for v in variants}
        assert len(fingerprints) == len(variants) + 1

    def test_spec_overrides_change_fingerprint_and_spec(self, quick_profile):
        base = SimulationJob(profile=quick_profile, spec_kind=SpecKind.ADAPTIVE)
        shallow = SimulationJob(
            profile=quick_profile,
            spec_kind=SpecKind.ADAPTIVE,
            spec_overrides={"mispredict_front_end_cycles": 9, "mispredict_integer_cycles": 7},
        )
        assert base.fingerprint() != shallow.fingerprint()
        assert shallow.build_spec().mispredict_front_end_cycles == 9
        assert base.build_spec().mispredict_front_end_cycles == 10
        with pytest.raises(ValueError):
            SimulationJob(
                profile=quick_profile,
                spec_kind=SpecKind.ADAPTIVE,
                spec_overrides={"not_a_field": 1},
            )

    def test_phase_adaptive_requires_adaptive_spec(self, quick_profile):
        with pytest.raises(ValueError):
            SimulationJob(
                profile=quick_profile,
                spec_kind=SpecKind.SYNCHRONOUS,
                indices=AdaptiveConfigIndices(),
                phase_adaptive=True,
            )

    def test_timing_uncertainty_knobs_change_fingerprint(self, quick_profile):
        base = SimulationJob(profile=quick_profile, spec_kind=SpecKind.ADAPTIVE)
        jittered = SimulationJob(
            profile=quick_profile,
            spec_kind=SpecKind.ADAPTIVE,
            jitter_fraction=0.05,
        )
        windowed = SimulationJob(
            profile=quick_profile,
            spec_kind=SpecKind.ADAPTIVE,
            sync_window_fraction=0.45,
        )
        fingerprints = {base.fingerprint(), jittered.fingerprint(), windowed.fingerprint()}
        assert len(fingerprints) == 3

    @pytest.mark.parametrize("spec_kind", [SpecKind.SYNCHRONOUS, SpecKind.BEST_SYNCHRONOUS])
    def test_jitter_requires_an_mcd_machine(self, quick_profile, spec_kind):
        # One global clock: jittering its four domain clocks independently
        # would model a machine that does not exist.
        with pytest.raises(ValueError, match="jitter_fraction"):
            SimulationJob(profile=quick_profile, spec_kind=spec_kind, jitter_fraction=0.05)
        spec = SimulationJob(profile=quick_profile, spec_kind=spec_kind).build_spec()
        with pytest.raises(ValueError, match="jitter_fraction"):
            MCDProcessor(spec, jitter_fraction=0.05)

    def test_default_sync_window_shares_fingerprint_with_explicit(self, quick_profile):
        implicit = SimulationJob(profile=quick_profile, spec_kind=SpecKind.BEST_SYNCHRONOUS)
        explicit = SimulationJob(
            profile=quick_profile,
            spec_kind=SpecKind.BEST_SYNCHRONOUS,
            sync_window_fraction=0.3,
        )
        assert implicit.fingerprint() == explicit.fingerprint()

    def test_control_overrides_resolve_and_fingerprint(self, quick_profile):
        base = SimulationJob(
            profile=quick_profile,
            spec_kind=SpecKind.BASE_ADAPTIVE,
            use_b_partitions=True,
            phase_adaptive=True,
        )
        overridden = SimulationJob(
            profile=quick_profile,
            spec_kind=SpecKind.BASE_ADAPTIVE,
            use_b_partitions=True,
            phase_adaptive=True,
            control_overrides={"interval_instructions": 777, "cache_hysteresis": 0.02},
        )
        control = overridden.resolved_control()
        assert control.interval_instructions == 777
        assert control.cache_hysteresis == 0.02
        # Untouched fields keep the window-scaled defaults.
        assert control.pll_interval_scaled == base.resolved_control().pll_interval_scaled
        assert base.fingerprint() != overridden.fingerprint()

    def test_labels_tell_sweep_jobs_apart(self):
        base = phase_adaptive_job(get_workload("gcc"), window=1500)
        jobs = [
            base,
            dataclasses.replace(base, sync_window_fraction=0.45),
            dataclasses.replace(base, control_overrides={"interval_instructions": 250}),
            dataclasses.replace(base, control_overrides={"cache_hysteresis": 0}),
        ]
        labels = [job.describe() for job in jobs]
        assert labels == [
            "gcc/base_adaptive/w1500",
            "gcc/base_adaptive/w1500/sync0.45",
            "gcc/base_adaptive/w1500/interval_instructions=250",
            "gcc/base_adaptive/w1500/cache_hysteresis=0",
        ]
        shallow = SimulationJob(
            profile=get_workload("gcc"),
            window=1500,
            spec_overrides={"mispredict_integer_cycles": 7, "mispredict_front_end_cycles": 9},
        )
        assert shallow.describe() == (
            "gcc/adaptive/w1500/mispredict_front_end_cycles=9/mispredict_integer_cycles=7"
        )

    def test_knob_validation(self, quick_profile):
        with pytest.raises(ValueError):
            SimulationJob(profile=quick_profile, jitter_fraction=0.5)
        with pytest.raises(ValueError):
            SimulationJob(profile=quick_profile, sync_window_fraction=1.0)
        with pytest.raises(ValueError):  # overrides without phase-adaptive control
            SimulationJob(
                profile=quick_profile,
                control_overrides={"interval_instructions": 500},
            )
        with pytest.raises(ValueError):  # unknown control field
            SimulationJob(
                profile=quick_profile,
                spec_kind=SpecKind.BASE_ADAPTIVE,
                phase_adaptive=True,
                control_overrides={"not_a_knob": 1},
            )


class TestExecutors:
    def test_parallel_matches_serial(self, quick_profile):
        jobs = _jobs(quick_profile)
        serial = list(SerialExecutor().imap_jobs(jobs, run_job))
        parallel = list(ParallelExecutor(max_workers=2).imap_jobs(jobs, run_job))
        assert serial == parallel

    def test_parallel_matches_serial_with_jittered_jobs(self, quick_profile):
        common = dict(profile=quick_profile, window=700, warmup=1200, jitter_fraction=0.05)
        jobs = [
            SimulationJob(
                spec_kind=SpecKind.ADAPTIVE, indices=AdaptiveConfigIndices(1, 0, 16, 16), **common
            ),
            SimulationJob(
                spec_kind=SpecKind.BASE_ADAPTIVE,
                use_b_partitions=True,
                phase_adaptive=True,
                **common,
            ),
        ]
        # Workers start from cleared edge tables and build their own.
        clear_edge_tables()
        parallel = list(ParallelExecutor(max_workers=2).imap_jobs(jobs, run_job))
        serial = list(SerialExecutor().imap_jobs(jobs, run_job))
        assert serial == parallel

    def test_parallel_single_worker_falls_back(self, quick_profile):
        jobs = _jobs(quick_profile)[:1]
        assert list(ParallelExecutor(max_workers=1).imap_jobs(jobs, run_job)) == [
            run_job(jobs[0])
        ]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ParallelExecutor(max_workers=0)
        with pytest.raises(ValueError):
            ParallelExecutor(chunk_size=0)


def _counting_engine(executor=None, cache=None):
    calls = []

    def counting_runner(job):
        calls.append(job.fingerprint())
        return run_job(job)

    engine = ExperimentEngine(
        executor if executor is not None else SerialExecutor(),
        cache if cache is not None else ResultCache(),
        runner=counting_runner,
    )
    return engine, calls


#: Ways a committed disk entry can be unservable, one per rejection branch of
#: ``ResultCache._load_disk``.
UNSERVABLE_DAMAGE = ["truncated", "not-an-object", "no-result", "misfiled", "bad-result"]


def _unservable_entry(profile: WorkloadProfile, directory, damage: str) -> SimulationJob:
    """Leave *directory* holding one entry, damaged as *damage* names.

    Returns the job whose file name the entry has.
    """
    job, other = _jobs(profile)[:2]
    cache = ResultCache(directory)
    path = directory / f"{job.fingerprint()}.json"
    if damage == "misfiled":
        # Another job's entry filed under this job's name.
        cache.put(other.fingerprint(), run_job(other))
        (directory / f"{other.fingerprint()}.json").replace(path)
        return job
    cache.put(job.fingerprint(), run_job(job))
    text = path.read_text()
    data = json.loads(text)
    if damage == "truncated":
        text = text[: len(text) // 2]  # truncated mid-write JSON
    elif damage == "not-an-object":
        text = json.dumps([data])
    elif damage == "no-result":
        del data["result"]
        text = json.dumps(data)
    elif damage == "bad-result":
        data["result"] = {"workload": data["result"]["workload"]}
        text = json.dumps(data)
    else:
        raise ValueError(f"unknown damage {damage!r}")
    path.write_text(text)
    return job


class TestEngineAndCache:
    def test_cache_hit_skips_resimulation_and_matches(self, quick_profile):
        engine, calls = _counting_engine()
        job = _jobs(quick_profile)[1]
        first = engine.run(job)
        second = engine.run(job)
        assert len(calls) == 1
        assert first == second
        assert first is not second  # callers must not share a mutable result
        assert engine.stats.cache_hits == 1
        assert engine.stats.simulations == 1

    def test_batch_duplicates_simulated_once(self, quick_profile):
        engine, calls = _counting_engine()
        job = _jobs(quick_profile)[0]
        results = engine.run_all([job, job, job])
        assert len(calls) == 1
        assert results[0] == results[1] == results[2]
        assert results[0] is not results[1]
        assert engine.stats.batch_duplicates == 2

    def test_disk_cache_survives_engine_restart(self, quick_profile, tmp_path):
        job = _jobs(quick_profile)[3]
        first_engine = ExperimentEngine(SerialExecutor(), ResultCache(tmp_path))
        original = first_engine.run(job)

        engine, calls = _counting_engine(cache=ResultCache(tmp_path))
        restored = engine.run(job)
        assert not calls  # served from disk, no simulation
        assert restored == original
        assert engine.cache.stats.disk_hits == 1

    @pytest.mark.parametrize("damage", UNSERVABLE_DAMAGE)
    def test_truncated_disk_entry_is_not_a_member_and_misses(
        self, quick_profile, tmp_path, damage
    ):
        """An unservable disk file must answer ``in`` and ``get`` consistently."""
        fingerprint = _unservable_entry(quick_profile, tmp_path, damage).fingerprint()
        fresh = ResultCache(tmp_path)
        assert fingerprint not in fresh
        assert fresh.get(fingerprint) is None
        assert fresh.stats.misses == 1

    @pytest.mark.parametrize("damage", UNSERVABLE_DAMAGE)
    def test_unservable_disk_entry_is_resimulated_and_overwritten(
        self, quick_profile, tmp_path, damage
    ):
        job = _unservable_entry(quick_profile, tmp_path, damage)
        engine, calls = _counting_engine(cache=ResultCache(tmp_path))
        result = engine.run(job)
        assert calls == [job.fingerprint()]
        fresh = ResultCache(tmp_path)
        assert fresh.get(job.fingerprint()) == result
        assert fresh.stats.disk_hits == 1

    @pytest.mark.parametrize("damage", UNSERVABLE_DAMAGE)
    def test_inspect_counts_unservable_disk_entry_as_unreadable(
        self, quick_profile, tmp_path, damage
    ):
        _unservable_entry(quick_profile, tmp_path, damage)
        summary = inspect_store(tmp_path)
        assert summary["entries"] == 1
        assert summary["servable_entries"] == 0
        assert summary["unreadable_entries"] == 1

    @pytest.mark.parametrize("offset", [-1, 1], ids=["older-build", "newer-build"])
    def test_load_rejects_version_mismatch(self, quick_profile, tmp_path, offset):
        """A well-formed entry from an older or newer FINGERPRINT_VERSION
        fails loudly.

        ``get`` and ``in`` both raise, naming both versions, and ``inspect``
        counts the entry as a version mismatch rather than as unreadable.
        """
        job = _jobs(quick_profile)[0]
        fingerprint = job.fingerprint()
        ResultCache(tmp_path).put(fingerprint, run_job(job))
        path = tmp_path / f"{fingerprint}.json"
        data = json.loads(path.read_text())
        data["version"] = FINGERPRINT_VERSION + offset
        path.write_text(json.dumps(data))

        with pytest.raises(CacheVersionError) as excinfo:
            ResultCache(tmp_path).get(fingerprint)
        message = str(excinfo.value)
        assert f"FINGERPRINT_VERSION {FINGERPRINT_VERSION + offset}" in message
        assert f"FINGERPRINT_VERSION {FINGERPRINT_VERSION}" in message
        with pytest.raises(CacheVersionError):
            _ = fingerprint in ResultCache(tmp_path)
        summary = inspect_store(tmp_path)
        assert summary["version_mismatches"] == 1
        assert summary["servable_entries"] == 0
        assert summary["unreadable_entries"] == 0

    def test_valid_disk_entry_is_a_member(self, quick_profile, tmp_path):
        job = _jobs(quick_profile)[0]
        fingerprint = job.fingerprint()
        ResultCache(tmp_path).put(fingerprint, run_job(job))
        fresh = ResultCache(tmp_path)
        assert fingerprint in fresh
        assert fresh.get(fingerprint) is not None

    def test_stale_temp_files_reaped_on_init(self, tmp_path):
        """A process killed between tempfile write and os.replace leaves
        .tmp-* litter; an old orphan is reaped when the cache comes up."""
        import os

        stale = tmp_path / ".tmp-orphan.json"
        stale.write_text('{"partial": tru')
        old = 1_000_000_000  # well past STALE_TEMP_AGE_SECONDS ago
        os.utime(stale, (old, old))
        fresh_temp = tmp_path / ".tmp-live.json"
        fresh_temp.write_text('{"partial": tru')  # a live concurrent writer

        ResultCache(tmp_path)
        assert not stale.exists()
        assert fresh_temp.exists()  # age guard spares in-flight writes

    def test_clear_reaps_all_temp_files_and_keeps_entries(self, quick_profile, tmp_path):
        job = _jobs(quick_profile)[0]
        cache = ResultCache(tmp_path)
        cache.put(job.fingerprint(), run_job(job))
        litter = tmp_path / ".tmp-fresh.json"
        litter.write_text("{")

        cache.clear()
        assert not litter.exists()
        assert len(cache) == 0
        # Committed disk entries survive and are still servable.
        assert cache.get(job.fingerprint()) is not None

    def test_make_engine_knobs(self, tmp_path):
        serial = make_engine(workers=1, use_cache=False)
        assert isinstance(serial.executor, SerialExecutor)
        assert serial.cache is None
        parallel = make_engine(workers=3, cache_dir=tmp_path)
        assert isinstance(parallel.executor, ParallelExecutor)
        assert parallel.executor.workers == 3
        assert parallel.cache.directory == tmp_path
        with pytest.raises(ValueError, match="workers must be an integer or 'auto'"):
            make_engine(workers="2.5")
        with pytest.raises(ValueError, match="workers must not be negative, got -3"):
            make_engine(workers=-3)


def _store_bytes(directory) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.glob("*.json"))}


def _disk_engine(cache_dir, **kwargs) -> ExperimentEngine:
    return ExperimentEngine(SerialExecutor(), ResultCache(cache_dir), **kwargs)


class TestResumeSemantics:
    def test_killed_batch_keeps_completed_prefix_and_resumes(self, quick_profile, tmp_path):
        jobs = _jobs(quick_profile)
        budget = 2

        simulated = 0

        def budgeted_runner(job):
            nonlocal simulated
            if simulated >= budget:
                raise RuntimeError("run killed (job budget exhausted)")
            simulated += 1
            return run_job(job)

        interrupted = _disk_engine(tmp_path / "store", runner=budgeted_runner)
        with pytest.raises(RuntimeError, match="run killed"):
            interrupted.run_all(jobs)
        # the completed prefix was committed incrementally
        survivors = ResultCache(tmp_path / "store").disk_fingerprints()
        assert len(survivors) == budget

        resumed = _disk_engine(tmp_path / "store")
        resumed.run_all(jobs)
        assert resumed.stats.cache_hits == budget
        assert resumed.stats.simulations == len(jobs) - budget

        uninterrupted = _disk_engine(tmp_path / "reference")
        uninterrupted.run_all(jobs)
        assert _store_bytes(tmp_path / "store") == _store_bytes(tmp_path / "reference")

        warm = _disk_engine(tmp_path / "store")
        warm.run_all(jobs)
        assert warm.stats.simulations == 0
        assert warm.stats.cache_hits == len(jobs)


#: Ways to fill a store with the jobs of ``_jobs``: one engine per
#: invocation, each given as (parallel executor?, the indices it runs).
STORE_FILLS = {
    "parallel": [(True, [0, 1, 2, 3])],
    "reversed": [(False, [3, 2, 1, 0])],
    "serial-then-parallel": [(False, [0, 1]), (True, [0, 1, 2, 3])],
    "one-job-per-invocation": [(False, [0]), (False, [1]), (False, [2]), (False, [3])],
}


@pytest.fixture(scope="module")
def serial_store_bytes(quick_profile, tmp_path_factory) -> dict[str, bytes]:
    """The store one serial pass over ``_jobs`` writes."""
    directory = tmp_path_factory.mktemp("serial-store")
    _disk_engine(directory).run_all(_jobs(quick_profile))
    return _store_bytes(directory)


class TestStoreBytes:
    @pytest.mark.parametrize("fill", sorted(STORE_FILLS))
    def test_store_depends_only_on_the_job_set(
        self, quick_profile, serial_store_bytes, tmp_path, fill
    ):
        """However the work is ordered, split or executed, the store's bytes
        are those of one serial pass."""
        jobs = _jobs(quick_profile)
        for parallel, indices in STORE_FILLS[fill]:
            executor = ParallelExecutor(max_workers=2) if parallel else SerialExecutor()
            engine = ExperimentEngine(executor, ResultCache(tmp_path))
            engine.run_all([jobs[index] for index in indices])
        assert _store_bytes(tmp_path) == serial_store_bytes


class TestPut:
    def test_put_stores_a_copy(self, quick_profile, tmp_path):
        job = _jobs(quick_profile)[0]
        fingerprint = job.fingerprint()
        result = run_job(job)
        committed = result.committed_instructions

        cache = ResultCache(tmp_path / "store")
        cache.put(fingerprint, result)
        # Changing the caller's object afterwards reaches neither tier.
        result.committed_instructions += 7

        on_disk = json.loads((tmp_path / "store" / f"{fingerprint}.json").read_text())
        assert on_disk["result"]["committed_instructions"] == committed
        assert cache.get(fingerprint).committed_instructions == committed


def _inspected_store(profile, directory) -> None:
    """Leave *directory* holding one servable, one corrupt and one stale entry."""
    servable, corrupt, stale = _jobs(profile)[:3]
    cache = ResultCache(directory)
    for job in (servable, corrupt, stale):
        cache.put(job.fingerprint(), run_job(job))
    path = directory / f"{corrupt.fingerprint()}.json"
    path.write_text(path.read_text()[:40])
    path = directory / f"{stale.fingerprint()}.json"
    data = json.loads(path.read_text())
    data["version"] = FINGERPRINT_VERSION - 1
    path.write_text(json.dumps(data))


class TestInspectCli:
    def test_text_report_classifies_every_entry(self, quick_profile, tmp_path, capsys):
        _inspected_store(quick_profile, tmp_path)
        before = _store_bytes(tmp_path)
        assert engine_main(["inspect", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "entries   : 3" in lines
        assert "  version invalid: 1  (incompatible with this build)" in lines
        assert f"  version {FINGERPRINT_VERSION - 1}: 1  (incompatible with this build)" in lines
        assert f"  version {FINGERPRINT_VERSION}: 1" in lines
        assert "validation: 1 servable, 1 unreadable, 1 version mismatch(es)" in lines
        # Inspecting never alters a committed entry.
        assert _store_bytes(tmp_path) == before

    def test_json_report_is_the_inspect_store_payload(self, quick_profile, tmp_path, capsys):
        _inspected_store(quick_profile, tmp_path)
        assert engine_main(["inspect", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == inspect_store(tmp_path)
        assert payload["versions"] == {
            "invalid": 1,
            str(FINGERPRINT_VERSION - 1): 1,
            str(FINGERPRINT_VERSION): 1,
        }

    def test_missing_directory_is_an_error(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert engine_main(["inspect", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {missing} is not a directory\n"
        assert not missing.exists()


class TestSweepThroughEngine:
    def test_run_synchronous_matches_direct_processor_path(self, quick_profile):
        engine = ExperimentEngine(SerialExecutor(), ResultCache())
        via_engine = run_synchronous(quick_profile, window=700, warmup=1200, engine=engine)

        processor = MCDProcessor(
            best_overall_synchronous_spec(), control=None, phase_adaptive=False, seed=0
        )
        direct = processor.run(
            make_trace(quick_profile),
            max_instructions=700,
            warmup_instructions=1200,
            workload_name=quick_profile.name,
        )
        assert via_engine == direct

    def test_factored_search_agrees_with_direct_call_path(self, quick_profile):
        engine = ExperimentEngine(SerialExecutor(), ResultCache())
        sweep = program_adaptive_search(
            quick_profile, window=700, warmup=1200, engine=engine
        )
        # Re-simulate the winner outside the engine, the way the seed code
        # invoked the processor directly.
        from repro.core.configuration import adaptive_mcd_spec

        processor = MCDProcessor(
            adaptive_mcd_spec(sweep.best_indices, use_b_partitions=False),
            control=None,
            phase_adaptive=False,
            seed=0,
        )
        direct = processor.run(
            make_trace(quick_profile),
            max_instructions=700,
            warmup_instructions=1200,
            workload_name=quick_profile.name,
        )
        assert sweep.best_result == direct
        best_time = sweep.best_result.execution_time_ps
        assert all(
            best_time <= result.execution_time_ps for result in sweep.evaluated.values()
        )

    def test_serial_and_parallel_sweeps_identical(self, quick_profile):
        serial = compare_workloads(
            [quick_profile],
            window=700,
            warmup=1200,
            engine=ExperimentEngine(SerialExecutor(), ResultCache()),
        )[0]
        parallel = compare_workloads(
            [quick_profile],
            window=700,
            warmup=1200,
            engine=ExperimentEngine(ParallelExecutor(max_workers=2), ResultCache()),
        )[0]
        assert serial.synchronous == parallel.synchronous
        assert serial.program_adaptive == parallel.program_adaptive
        assert serial.phase_adaptive == parallel.phase_adaptive
        assert serial.program_best_indices == parallel.program_best_indices

    def test_batched_comparison_matches_single(self, quick_profile):
        single = compare_workload(
            quick_profile,
            window=700,
            warmup=1200,
            engine=ExperimentEngine(SerialExecutor(), ResultCache()),
        )
        batched = compare_workloads(
            [quick_profile],
            window=700,
            warmup=1200,
            engine=ExperimentEngine(SerialExecutor(), ResultCache()),
        )[0]
        assert single.synchronous == batched.synchronous
        assert single.program_adaptive == batched.program_adaptive
        assert single.phase_adaptive == batched.phase_adaptive

    def test_jittered_sweep_serial_and_parallel_identical(self, quick_profile):
        """Acceptance: a jittered sweep through the engine is bit-identical
        whichever executor carries it (and reproducible per submission)."""
        jobs = [
            SimulationJob(
                profile=quick_profile,
                spec_kind=SpecKind.ADAPTIVE,
                window=700,
                warmup=1200,
                jitter_fraction=0.05,
            ),
            SimulationJob(
                profile=quick_profile,
                spec_kind=SpecKind.BASE_ADAPTIVE,
                use_b_partitions=True,
                phase_adaptive=True,
                window=700,
                warmup=1200,
                jitter_fraction=0.05,
                sync_window_fraction=0.45,
            ),
        ]
        serial = ExperimentEngine(SerialExecutor(), ResultCache()).run_all(jobs)
        parallel = ExperimentEngine(ParallelExecutor(max_workers=2), ResultCache()).run_all(
            jobs
        )
        assert serial == parallel
        # A second serial submission through a fresh engine reproduces too.
        assert ExperimentEngine(SerialExecutor(), ResultCache()).run_all(jobs) == serial

    def test_search_reuses_cache_across_drivers(self, quick_profile):
        engine, calls = _counting_engine()
        program_adaptive_search(quick_profile, window=700, warmup=1200, engine=engine)
        simulated_once = len(calls)
        # The comparison driver re-submits the same candidate jobs; only the
        # synchronous baseline and the phase-adaptive run are new.
        compare_workload(quick_profile, window=700, warmup=1200, engine=engine)
        assert len(calls) == simulated_once + 2
