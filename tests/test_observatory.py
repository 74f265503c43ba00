"""Tests for the campaign observatory: run ledger, aggregation and report.

The load-bearing property first: the ledger is observation-only (the
golden digests are bit-identical with a ledger attached).  The rest covers
the ledger writer, the metrics ``from_dict``/``merge`` round-trips, the
campaign report renderer and the CLI surfaces.  Rejection of unreadable ledger files is tested with
trace files in ``tests/test_records.py``.
"""

from __future__ import annotations

import json

import pytest

from golden_digests import golden_jobs, result_digest
from repro.engine import ExperimentEngine
from repro.engine.cache import ResultCache
from repro.engine.cli import inspect_store
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
from test_records import KINDS


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


# ------------------------------------------------------ engine integration


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


def _ledgered_run(tmp_path, label="r"):
    """Four golden jobs through one ledgered engine; returns the ledger dir."""
    engine = ExperimentEngine(cache=ResultCache(directory=tmp_path / "cache"))
    engine.ledger = open_ledger(tmp_path / "ledgers", label=label)
    engine.run_all(list(golden_jobs().values())[:4])
    engine.ledger.close()
    return tmp_path / "ledgers"


def test_render_report_sections(tmp_path):
    summary = summarize_ledgers([_ledgered_run(tmp_path)])
    text = render_report(summary)
    for section in ("Campaign", "Work", "Engine", "Job wall-clock", "Queue latency"):
        assert section in text
    assert summary.fingerprint_digest()[:16] in text
    markdown = render_report(summary, markdown=True)
    assert "## Work" in markdown
    assert "| field | value |" in markdown


def test_render_report_with_store(tmp_path):
    summary = summarize_ledgers([_ledgered_run(tmp_path)])
    store = inspect_store(tmp_path / "cache")
    text = render_report(summary, store=store)
    assert "Result store" in text
    assert str(tmp_path / "cache") in text


def test_render_histogram_empty():
    assert render_histogram(Histogram()) == ["(no samples)"]


# ------------------------------------------------------------ CLI surfaces


def test_obs_ledger_cli_summarize_report(tmp_path, capsys):
    ledgers = str(_ledgered_run(tmp_path, label="cli"))

    assert obs_main(["ledger", "summarize", ledgers, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["records"] == 1
    assert payload["simulations"] == 4
    assert payload["unique_jobs"] == 4

    report_path = tmp_path / "report.md"
    assert (
        obs_main(
            [
                "report",
                ledgers,
                "--markdown",
                "--store",
                str(tmp_path / "cache"),
                "--out",
                str(report_path),
            ]
        )
        == 0
    )
    rendered = report_path.read_text()
    assert "## Work" in rendered
    assert "## Result store" in rendered


def test_ledger_written_by_the_previous_build_summarizes_and_reports(tmp_path, capsys):
    """The previous build's header meta carried a key this build no longer
    writes; its ledgers still go through `ledger summarize` and `report`."""
    parent = KINDS["ledger"]
    (tmp_path / "matrix.ledger.jsonl").write_text(parent.parent_header + parent.parent_row)
    assert obs_main(["ledger", "summarize", str(tmp_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["ledgers"], payload["records"], payload["simulations"]) == (1, 1, 1)
    assert obs_main(["report", str(tmp_path)]) == 0
    assert payload["fingerprint_digest"][:16] in capsys.readouterr().out


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
