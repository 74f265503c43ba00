"""Tests for the campaign observatory: run ledger, aggregation and report.

The load-bearing properties first: the ledger is observation-only (the
golden digests are bit-identical with a ledger attached), and the fleet is
equivalent to the single process (the shard ledgers of an N-shard campaign
summarize to the same partition-independent equivalence key as one process
running the whole job list).  The rest covers the ledger writer, the
metrics ``from_dict``/``merge`` round-trips, the campaign report renderer
and the CLI surfaces.  Rejection of unreadable ledger files is tested with
trace files in ``tests/test_records.py``.
"""

from __future__ import annotations

import json

import pytest

from golden_digests import golden_jobs, result_digest
from repro.engine import ExperimentEngine
from repro.engine.cache import ResultCache
from repro.engine.cli import inspect_store
from repro.engine.fabric import ShardSpec, run_shard, shard_index
from repro.obs.cli import main as obs_main
from repro.obs.ledger import (
    LedgerSchemaError,
    LedgerWriter,
    ledger_files,
    open_ledger,
    read_ledger,
    summarize_ledgers,
)
from repro.obs.metrics import EngineMetrics, Histogram
from repro.obs.report import render_histogram, render_report
from test_golden_values import GOLDEN_DIGESTS


def _sample_metrics(values=(0.002, 0.05, 0.4, 2.0)) -> EngineMetrics:
    metrics = EngineMetrics()
    for value in values:
        metrics.record_job(value, value * 2)
    metrics.record_batch(sum(values), 2)
    return metrics


# ------------------------------------------------------------ bit-identity


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_golden_digests_bit_identical_with_ledger_attached(name, tmp_path):
    """The ledger is observation-only: digests must not move when it is on."""
    engine = ExperimentEngine()
    engine.ledger = open_ledger(tmp_path, label="golden")
    job = golden_jobs()[name]
    result = engine.run_all([job])[0]
    engine.ledger.close()
    assert result_digest(result) == GOLDEN_DIGESTS[name], (
        f"RunResult for {name} diverged with a run ledger attached; the "
        "ledger must be observation-only"
    )
    # ...and the ledger actually recorded the work.
    _, records = read_ledger(tmp_path / "golden.ledger.jsonl")
    assert [job.fingerprint()] in [record["simulated"] for record in records]


# ------------------------------------------------------- metrics round-trip


def test_histogram_round_trips_through_dict():
    histogram = Histogram()
    for value in (0.0005, 0.02, 0.02, 5.0, 500.0):
        histogram.record(value)
    clone = Histogram.from_dict(histogram.to_dict())
    assert clone.to_dict() == histogram.to_dict()


def test_histogram_from_dict_rejects_inconsistent_counts():
    payload = Histogram().to_dict()
    payload["count"] = 3  # buckets still sum to 0
    with pytest.raises(ValueError, match="bucket sum"):
        Histogram.from_dict(payload)


def test_histogram_merge_equals_combined_recording():
    left, right, combined = Histogram(), Histogram(), Histogram()
    for value in (0.002, 0.2, 2.0):
        left.record(value)
        combined.record(value)
    for value in (0.0001, 0.05, 50.0):
        right.record(value)
        combined.record(value)
    left.merge(right)
    assert left.to_dict() == combined.to_dict()


def test_histogram_merge_rejects_different_bounds():
    with pytest.raises(ValueError, match="different bounds"):
        Histogram().merge(Histogram(bounds=(1.0, 2.0)))


def test_engine_metrics_round_trip_and_merge():
    first = _sample_metrics()
    second = _sample_metrics(values=(0.01, 0.3))
    clone = EngineMetrics.from_dict(first.to_dict())
    assert clone.to_dict() == first.to_dict()

    combined = EngineMetrics()
    for values in ((0.002, 0.05, 0.4, 2.0), (0.01, 0.3)):
        for value in values:
            combined.record_job(value, value * 2)
        combined.record_batch(sum(values), 2)
    first.merge(second)
    # Scalar sums are float-associative; compare with approx, counts exactly.
    assert first.jobs_completed == combined.jobs_completed
    assert first.batches == combined.batches
    assert first.busy_seconds == pytest.approx(combined.busy_seconds)
    assert first.capacity_seconds == pytest.approx(combined.capacity_seconds)
    assert first.job_seconds.counts == combined.job_seconds.counts
    assert first.queue_latency.counts == combined.queue_latency.counts
    assert first.job_seconds.total == pytest.approx(combined.job_seconds.total)
    assert 0.0 < first.worker_utilization <= 1.0


# ---------------------------------------------------------- ledger schema


def test_ledger_writer_round_trip(tmp_path):
    path = tmp_path / "run.ledger.jsonl"
    with LedgerWriter(path, meta={"label": "test"}) as writer:
        writer.append({"record": "batch", "jobs": 2, "simulated": ["a", "b"]})
    meta, records = read_ledger(path)
    assert meta["label"] == "test"
    assert records == [{"record": "batch", "jobs": 2, "simulated": ["a", "b"]}]


def test_ledger_writer_is_append_only_across_reopens(tmp_path):
    path = tmp_path / "run.ledger.jsonl"
    with LedgerWriter(path, meta={"label": "first"}) as writer:
        writer.append({"record": "batch", "jobs": 1})
    # A re-started worker continues the same file, keeping the original
    # header and all previous records.
    with LedgerWriter(path, meta={"label": "ignored"}) as writer:
        assert writer.meta["label"] == "first"
        writer.append({"record": "batch", "jobs": 2})
    meta, records = read_ledger(path)
    assert meta["label"] == "first"
    assert [record["jobs"] for record in records] == [1, 2]


def test_ledger_writer_rejects_unknown_record_type(tmp_path):
    with LedgerWriter(tmp_path / "run.ledger.jsonl") as writer:
        with pytest.raises(ValueError, match="unknown ledger record type"):
            writer.append({"record": "bogus"})


def test_ledger_writer_refuses_foreign_existing_file(tmp_path):
    path = tmp_path / "foreign.ledger.jsonl"
    path.write_text('{"kind": "something-else", "schema": 1}\n')
    with pytest.raises(LedgerSchemaError):
        LedgerWriter(path)


def test_ledger_files_discovers_directory_sorted(tmp_path):
    for name in ("b", "a"):
        with LedgerWriter(tmp_path / f"{name}.ledger.jsonl"):
            pass
    found = ledger_files(tmp_path)
    assert [path.name for path in found] == ["a.ledger.jsonl", "b.ledger.jsonl"]
    with pytest.raises(FileNotFoundError):
        ledger_files(tmp_path / "missing")


# ------------------------------------------------- engine/fabric integration


def test_engine_ledger_records_batches_and_cache_hits(tmp_path):
    jobs = list(golden_jobs().values())[:2]
    cache = ResultCache(directory=tmp_path / "cache")
    engine = ExperimentEngine(cache=cache)
    engine.ledger = open_ledger(tmp_path, label="warmup")
    engine.run_all(jobs)
    engine.run_all(jobs)  # second pass served from cache
    engine.ledger.close()
    _, records = read_ledger(tmp_path / "warmup.ledger.jsonl")
    assert len(records) == 2
    cold, warm = records
    assert cold["record"] == "batch"
    assert sorted(cold["simulated"]) == sorted(job.fingerprint() for job in jobs)
    assert cold["cached"] == []
    assert warm["simulated"] == []
    assert sorted(warm["cached"]) == sorted(job.fingerprint() for job in jobs)
    for record in records:
        assert record["executor"] == "serial"
        assert record["engine_session"]
        assert record["metrics"]["jobs_completed"] == 2
        assert isinstance(record["t"], float)


def test_shard_report_carries_ledger_path(tmp_path):
    jobs = list(golden_jobs().values())[:3]
    engine = ExperimentEngine(cache=ResultCache(directory=tmp_path / "cache"))
    engine.ledger = open_ledger(tmp_path, label="w", shard="0/1")
    report = run_shard(jobs, ShardSpec(0, 1), engine)
    engine.ledger.close()
    assert report.ledger_path == str(tmp_path / "w-shard-0-of-1.ledger.jsonl")
    assert report.ledger_path in report.describe()
    assert report.to_dict()["ledger_path"] == report.ledger_path

    bare = ExperimentEngine()
    assert run_shard(jobs, ShardSpec(0, 1), bare).ledger_path is None


def test_fleet_equivalence_shard_ledgers_match_single_process(tmp_path):
    """The fleet invariant: N shard ledgers fuse to the one-process view."""
    jobs = list(golden_jobs().values())
    for index in range(2):
        engine = ExperimentEngine(cache=ResultCache(directory=tmp_path / f"cache{index}"))
        engine.ledger = open_ledger(tmp_path / "ledgers", label="fleet", shard=f"{index}/2")
        run_shard(jobs, ShardSpec(index, 2), engine)
        engine.ledger.close()
    fleet = summarize_ledgers([tmp_path / "ledgers"])

    single = ExperimentEngine(cache=ResultCache(directory=tmp_path / "cache-single"))
    single.ledger = open_ledger(tmp_path / "single", label="fleet")
    run_shard(jobs, ShardSpec(0, 1), single)
    single.ledger.close()
    solo = summarize_ledgers([tmp_path / "single"])

    assert fleet.equivalence_key() == solo.equivalence_key()
    assert fleet.simulations == len(jobs)
    # Records are attributed to their ledger's shard; timing fields are
    # per-host and deliberately not part of the equivalence key.
    assert set(fleet.shards) == {"0/2", "1/2"}
    assert fleet.metrics.jobs_completed == solo.metrics.jobs_completed


def test_summarize_keeps_final_snapshot_per_engine_session(tmp_path):
    """A re-run worker appends with fresh metrics; both sessions must count."""
    jobs = list(golden_jobs().values())[:2]
    for job in jobs:  # two processes, one job each, same ledger file
        engine = ExperimentEngine(cache=ResultCache(directory=tmp_path / "cache"))
        engine.ledger = open_ledger(tmp_path, label="restart")
        engine.run_all([job])
        engine.ledger.close()
    summary = summarize_ledgers([tmp_path / "restart.ledger.jsonl"])
    assert summary.metrics.jobs_completed == 2
    assert summary.simulations == 2


def test_summarize_names_a_corrupt_metrics_snapshot(tmp_path, capsys):
    with LedgerWriter(tmp_path / "bad.ledger.jsonl") as writer:
        writer.append({"record": "batch", "jobs": 1, "metrics": {"jobs_completed": 1}})
    with pytest.raises(LedgerSchemaError, match="invalid metrics snapshot"):
        summarize_ledgers([tmp_path])
    assert obs_main(["ledger", "summarize", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------- report


def _two_jobs_per_shard():
    """Four golden jobs, two owned by each of two shards.

    A job's shard hashes its fingerprint, which moves with every
    FINGERPRINT_VERSION bump, so the jobs are picked by owner, not by
    position: both shards of the fleet always have work.
    """
    owned: dict[int, list] = {0: [], 1: []}
    for job in golden_jobs().values():
        jobs = owned[shard_index(job.fingerprint(), 2)]
        if len(jobs) < 2:
            jobs.append(job)
    return owned[0] + owned[1]


def _fleet_summary(tmp_path):
    jobs = _two_jobs_per_shard()
    for index in range(2):
        engine = ExperimentEngine(cache=ResultCache(directory=tmp_path / f"cache{index}"))
        engine.ledger = open_ledger(tmp_path / "ledgers", label="r", shard=f"{index}/2")
        run_shard(jobs, ShardSpec(index, 2), engine)
        engine.ledger.close()
    return summarize_ledgers([tmp_path / "ledgers"])


def test_render_report_sections(tmp_path):
    summary = _fleet_summary(tmp_path)
    text = render_report(summary)
    for section in ("Campaign", "Work", "Engine", "Per-shard balance", "Job wall-clock"):
        assert section in text
    assert "0/2" in text and "1/2" in text
    markdown = render_report(summary, markdown=True)
    assert "## Per-shard balance" in markdown
    assert "| shard |" in markdown


def test_render_report_with_store(tmp_path):
    summary = _fleet_summary(tmp_path)
    store = inspect_store(tmp_path / "cache0")
    text = render_report(summary, store=store)
    assert "Result store" in text
    assert str(tmp_path / "cache0") in text


def test_render_histogram_empty():
    assert render_histogram(Histogram()) == ["(no samples)"]


# ------------------------------------------------------------ CLI surfaces


def test_obs_ledger_cli_summarize_report(tmp_path, capsys):
    jobs = _two_jobs_per_shard()
    for index in range(2):
        engine = ExperimentEngine(cache=ResultCache(directory=tmp_path / f"cache{index}"))
        engine.ledger = open_ledger(tmp_path / "ledgers", label="cli", shard=f"{index}/2")
        run_shard(jobs, ShardSpec(index, 2), engine)
        engine.ledger.close()
    ledgers = str(tmp_path / "ledgers")

    assert obs_main(["ledger", "summarize", ledgers, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["records"] == 2
    assert payload["simulations"] == 4
    assert payload["equivalence_key"]["unique_jobs"] == 4
    assert sorted(payload["shards"]) == ["0/2", "1/2"]

    report_path = tmp_path / "report.md"
    assert (
        obs_main(
            [
                "report",
                ledgers,
                "--markdown",
                "--store",
                str(tmp_path / "cache0"),
                "--out",
                str(report_path),
            ]
        )
        == 0
    )
    rendered = report_path.read_text()
    assert "## Per-shard balance" in rendered
    assert "| 0/2 |" in rendered and "| 1/2 |" in rendered
    assert "## Result store" in rendered


def test_inspect_store_json_payload(tmp_path):
    job = golden_jobs()["gcc/synchronous"]
    engine = ExperimentEngine(cache=ResultCache(directory=tmp_path / "store"))
    engine.run_all([job])
    summary = inspect_store(tmp_path / "store")
    assert summary["entries"] == 1
    assert summary["servable_entries"] == 1
    assert summary["unreadable_entries"] == 0
    assert summary["version_mismatches"] == 0
    assert "cache_stats" in summary and "hits" in summary["cache_stats"]
