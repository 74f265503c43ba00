"""Tests for the distributed campaign fabric: shard, merge, resume."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.configuration import AdaptiveConfigIndices
from repro.engine import (
    CacheMergeError,
    CacheVersionError,
    ExperimentEngine,
    FINGERPRINT_VERSION,
    ResultCache,
    SerialExecutor,
    SimulationJob,
    SpecKind,
    parse_shard,
    run_job,
    run_shard,
    select_shard,
    shard_index,
    shard_jobs,
)
from repro.engine.fabric import ShardSpec
from repro.workloads import WorkloadProfile


@pytest.fixture(scope="module")
def profile() -> WorkloadProfile:
    return WorkloadProfile(
        name="fabric-quick",
        suite="test",
        code_footprint_kb=4.0,
        inner_window_kb=2.0,
        data_footprint_kb=48.0,
        hot_data_kb=12.0,
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


def _store_bytes(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.glob("*.json"))}


def _engine(cache_dir: Path, **kwargs) -> ExperimentEngine:
    return ExperimentEngine(SerialExecutor(), ResultCache(cache_dir), **kwargs)


class TestSharding:
    def test_parse_shard(self):
        assert parse_shard("0/2") == ShardSpec(0, 2)
        assert parse_shard(" 3/8 ") == ShardSpec(3, 8)
        assert parse_shard("0/1").describe() == "0/1"

    @pytest.mark.parametrize("text", ["", "2", "2/", "/2", "2/2", "3/2", "-1/2", "a/b"])
    def test_parse_shard_rejects(self, text):
        with pytest.raises(ValueError):
            parse_shard(text)

    def test_shard_spec_validates(self):
        with pytest.raises(ValueError):
            ShardSpec(0, 0)
        with pytest.raises(ValueError):
            ShardSpec(2, 2)
        assert ShardSpec(0, 1).describe() == "0/1"

    def test_shard_index_is_stable_and_in_range(self, profile):
        for job in _jobs(profile):
            fingerprint = job.fingerprint()
            for count in (1, 2, 3, 7):
                index = shard_index(fingerprint, count)
                assert 0 <= index < count
                assert index == shard_index(fingerprint, count)

    def test_shard_jobs_partitions_the_deduplicated_list(self, profile):
        jobs = _jobs(profile)
        duplicated = jobs + [jobs[0], jobs[2]]
        shards = shard_jobs(duplicated, 3)
        assert len(shards) == 3
        fingerprints = [[job.fingerprint() for job in shard] for shard in shards]
        flat = [fp for shard in fingerprints for fp in shard]
        assert len(flat) == len(set(flat)) == len(jobs)
        assert set(flat) == {job.fingerprint() for job in jobs}
        # every worker derives the identical partition
        again = shard_jobs(duplicated, 3)
        assert [[j.fingerprint() for j in s] for s in again] == fingerprints

    def test_select_shard_matches_partition(self, profile):
        jobs = _jobs(profile)
        for index in range(2):
            selected = select_shard(jobs, ShardSpec(index, 2))
            assert selected == shard_jobs(jobs, 2)[index]


class TestShardMergeEqualsSerial:
    def test_sharded_then_merged_store_is_byte_identical_to_serial(self, profile, tmp_path):
        jobs = _jobs(profile)

        reports = []
        for index in range(2):
            engine = _engine(tmp_path / f"shard{index}")
            reports.append(run_shard(jobs, ShardSpec(index, 2), engine))
        assert sum(report.jobs_in_shard for report in reports) == len(jobs)
        assert all(report.simulations == report.jobs_in_shard for report in reports)
        assert all(report.jobs_planned == len(jobs) for report in reports)

        merged = ResultCache(tmp_path / "merged")
        total = 0
        for index in range(2):
            report = merged.merge(tmp_path / f"shard{index}")
            total += report.merged
            assert report.duplicates == 0
        assert total == len(jobs)

        serial_engine = _engine(tmp_path / "serial")
        serial_engine.run_all(jobs)

        assert _store_bytes(tmp_path / "merged") == _store_bytes(tmp_path / "serial")

    def test_rerunning_a_shard_is_pure_cache_hits(self, profile, tmp_path):
        jobs = _jobs(profile)
        shard = ShardSpec(0, 2)
        first = run_shard(jobs, shard, _engine(tmp_path / "w"))
        second = run_shard(jobs, shard, _engine(tmp_path / "w"))
        assert first.simulations == first.jobs_in_shard > 0
        assert second.simulations == 0
        assert second.cache_hits == second.jobs_in_shard == first.jobs_in_shard


class TestMergeValidation:
    def _seed_store(self, profile, directory: Path) -> str:
        """One committed entry; returns its fingerprint."""
        engine = _engine(directory)
        job = _jobs(profile)[0]
        engine.run(job)
        return job.fingerprint()

    def test_merge_is_idempotent(self, profile, tmp_path):
        self._seed_store(profile, tmp_path / "src")
        destination = ResultCache(tmp_path / "dst")
        assert destination.merge(tmp_path / "src").merged == 1
        report = destination.merge(tmp_path / "src")
        assert (report.merged, report.duplicates) == (0, 1)

    def test_merge_rejects_version_mismatch_naming_both_versions(self, profile, tmp_path):
        fingerprint = self._seed_store(profile, tmp_path / "src")
        path = tmp_path / "src" / f"{fingerprint}.json"
        data = json.loads(path.read_text())
        data["version"] = FINGERPRINT_VERSION - 1
        path.write_text(json.dumps(data))

        destination = ResultCache(tmp_path / "dst")
        with pytest.raises(CacheVersionError) as excinfo:
            destination.merge(tmp_path / "src")
        message = str(excinfo.value)
        assert f"FINGERPRINT_VERSION {FINGERPRINT_VERSION - 1}" in message
        assert f"FINGERPRINT_VERSION {FINGERPRINT_VERSION}" in message
        # nothing was copied: validation precedes the first write
        assert destination.disk_fingerprints() == []

    def test_load_rejects_version_mismatch(self, profile, tmp_path):
        fingerprint = self._seed_store(profile, tmp_path / "src")
        path = tmp_path / "src" / f"{fingerprint}.json"
        data = json.loads(path.read_text())
        data["version"] = FINGERPRINT_VERSION + 1
        path.write_text(json.dumps(data))
        with pytest.raises(CacheVersionError):
            ResultCache(tmp_path / "src").get(fingerprint)

    def test_merge_rejects_conflicting_duplicate(self, profile, tmp_path):
        fingerprint = self._seed_store(profile, tmp_path / "a")
        self._seed_store(profile, tmp_path / "b")
        path = tmp_path / "b" / f"{fingerprint}.json"
        data = json.loads(path.read_text())
        data["result"]["committed_instructions"] += 1
        path.write_text(json.dumps(data))

        destination = ResultCache(tmp_path / "dst")
        destination.merge(tmp_path / "a")
        with pytest.raises(CacheMergeError, match="merge conflict"):
            destination.merge(tmp_path / "b")

    def test_merge_rejects_fingerprint_filename_mismatch(self, profile, tmp_path):
        fingerprint = self._seed_store(profile, tmp_path / "src")
        path = tmp_path / "src" / f"{fingerprint}.json"
        path.rename(tmp_path / "src" / f"{'0' * 64}.json")
        with pytest.raises(CacheMergeError, match="does not match its"):
            ResultCache(tmp_path / "dst").merge(tmp_path / "src")

    def test_merge_guards_memory_only_and_bad_sources(self, profile, tmp_path):
        with pytest.raises(ValueError):
            ResultCache().merge(tmp_path)  # memory-only destination
        destination = ResultCache(tmp_path / "dst")
        with pytest.raises(FileNotFoundError):
            destination.merge(tmp_path / "missing")
        with pytest.raises(ValueError):
            destination.merge(tmp_path / "dst")


class TestResumeSemantics:
    def test_killed_batch_keeps_completed_prefix_and_resumes(self, profile, tmp_path):
        jobs = _jobs(profile)
        budget = 2

        simulated = 0

        def budgeted_runner(job):
            nonlocal simulated
            if simulated >= budget:
                raise RuntimeError("worker killed (job budget exhausted)")
            simulated += 1
            return run_job(job)

        interrupted = _engine(tmp_path / "store", runner=budgeted_runner)
        with pytest.raises(RuntimeError, match="worker killed"):
            interrupted.run_all(jobs)
        # the completed prefix was committed incrementally
        survivors = ResultCache(tmp_path / "store").disk_fingerprints()
        assert len(survivors) == budget

        resumed = _engine(tmp_path / "store")
        resumed.run_all(jobs)
        assert resumed.stats.cache_hits == budget
        assert resumed.stats.simulations == len(jobs) - budget

        uninterrupted = _engine(tmp_path / "reference")
        uninterrupted.run_all(jobs)
        assert _store_bytes(tmp_path / "store") == _store_bytes(tmp_path / "reference")

        warm = _engine(tmp_path / "store")
        warm.run_all(jobs)
        assert warm.stats.simulations == 0
        assert warm.stats.cache_hits == len(jobs)


class TestCanonicalisation:
    def test_process_dependent_counters_are_reset_on_put(self, profile, tmp_path):
        job = _jobs(profile)[0]
        fingerprint = job.fingerprint()
        result = run_job(job)
        result.compiled_trace_cache_hits = 7

        cache = ResultCache(tmp_path / "store")
        cache.put(fingerprint, result)

        on_disk = json.loads((tmp_path / "store" / f"{fingerprint}.json").read_text())
        assert on_disk["result"]["compiled_trace_cache_hits"] == 0
        assert cache.get(fingerprint).compiled_trace_cache_hits == 0
        # the caller's object is untouched
        assert result.compiled_trace_cache_hits == 7
