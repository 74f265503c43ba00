"""Tests for the campaign observatory: run ledger, aggregation and report.

The load-bearing property first: the ledger is observation-only (the
golden digests are bit-identical with a ledger attached).  The rest covers
the ledger writer, the engine's batch and job records (each job timed in
the process that ran it, and recorded as its result is stored), the
campaign report renderer and the CLI surfaces.  Rejection of unreadable
ledger files is tested with trace files in ``tests/test_records.py``.
"""

from __future__ import annotations

import json
import time

import pytest

from golden_digests import golden_jobs, result_digest
from repro.engine import ExperimentEngine, ParallelExecutor, run_job
from repro.engine.cache import ResultCache
from repro.engine.cli import inspect_store
from repro.obs.cli import main as obs_main
from repro.obs.ledger import (
    WORK_FIELDS,
    LedgerSchemaError,
    LedgerSummary,
    LedgerWriter,
    ledger_files,
    open_ledger,
    read_ledger,
    summarize_ledgers,
)
from repro.obs.report import SLOWEST_JOBS, render_report
from test_golden_values import GOLDEN_DIGESTS
from test_records import KINDS


def _job_records(path) -> list[dict]:
    return [record for record in read_ledger(path)[1] if record["record"] == "job"]


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
    jobs = _job_records(tmp_path / "golden.ledger.jsonl")
    assert [record["fingerprint"] for record in jobs] == [job.fingerprint()]


# ---------------------------------------------------------- ledger schema


def test_ledger_writer_round_trip(tmp_path):
    path = tmp_path / "run.ledger.jsonl"
    with LedgerWriter(path, meta={"label": "test"}) as writer:
        writer.append({"record": "batch", "jobs": 2, "cached": ["a", "b"]})
    meta, records = read_ledger(path)
    assert meta["label"] == "test"
    assert records == [{"record": "batch", "jobs": 2, "cached": ["a", "b"]}]


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
    assert [record["record"] for record in records] == ["batch", "job", "job", "batch"]
    cold, warm = records[0], records[3]
    fingerprints = sorted(job.fingerprint() for job in jobs)
    assert (cold["jobs"], cold["cached"], warm["cached"]) == (2, [], fingerprints)
    for record in (cold, warm):
        assert (record["executor"], record["workers"]) == ("serial", 1)
        assert isinstance(record["t"], float)
    for job, record in zip(jobs, records[1:3]):
        result = cache.get(job.fingerprint())
        skipped = result.horizon_skipped_edges
        assert record["fingerprint"] == job.fingerprint()
        assert record["job"] == job.describe()
        assert record["seconds"] > 0
        assert record["committed_instructions"] == result.committed_instructions
        assert record["processed_edges"] == sum(result.domain_cycles.values()) - skipped > 0
        assert record["skipped_edges"] == skipped
        assert record["configuration_changes"] == len(result.configuration_changes)


#: Seconds the napping runner sleeps before each job.
NAP_SECONDS = 0.05


def _napping_runner(job):
    time.sleep(NAP_SECONDS)
    return run_job(job)


def test_parallel_jobs_are_timed_in_the_process_that_runs_them(tmp_path):
    """Each worker takes a chunk of three jobs; every job's record holds at
    least its own nap, not the time between results reaching the engine."""
    engine = ExperimentEngine(ParallelExecutor(max_workers=2, chunk_size=3), runner=_napping_runner)
    engine.ledger = open_ledger(tmp_path, label="parallel")
    engine.run_all(list(golden_jobs().values())[:6])
    engine.ledger.close()
    seconds = [record["seconds"] for record in _job_records(tmp_path / "parallel.ledger.jsonl")]
    assert len(seconds) == 6
    assert min(seconds) >= NAP_SECONDS


def test_a_killed_batch_leaves_a_job_record_per_stored_result(tmp_path, capsys):
    jobs = list(golden_jobs().values())[:4]
    killed_at = 3
    calls = 0

    def failing_runner(job):
        nonlocal calls
        calls += 1
        if calls == killed_at:
            raise RuntimeError("run killed")
        return run_job(job)

    engine = ExperimentEngine(cache=ResultCache(tmp_path / "store"), runner=failing_runner)
    engine.ledger = open_ledger(tmp_path / "ledgers", label="killed")
    with pytest.raises(RuntimeError, match="run killed"):
        engine.run_all(jobs)
    engine.ledger.close()
    stored = ResultCache(tmp_path / "store").disk_fingerprints()
    recorded = _job_records(tmp_path / "ledgers" / "killed.ledger.jsonl")
    assert sorted(stored) == sorted(record["fingerprint"] for record in recorded)
    assert len(recorded) == killed_at - 1
    assert obs_main(["report", str(tmp_path / "ledgers"), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["batches"], payload["jobs_submitted"]) == (1, len(jobs))
    assert payload["simulations"] == killed_at - 1


def test_summarize_sums_the_work_of_every_invocation_appending_to_one_ledger(tmp_path):
    """Two invocations, one engine and one job each, append to one file."""
    jobs = list(golden_jobs().values())[:2]
    for job in jobs:
        engine = ExperimentEngine(cache=ResultCache(directory=tmp_path / "cache"))
        engine.ledger = open_ledger(tmp_path, label="restart")
        engine.run_all([job])
        engine.ledger.close()
    records = _job_records(tmp_path / "restart.ledger.jsonl")
    summary = summarize_ledgers([tmp_path / "restart.ledger.jsonl"])
    assert (summary.batches, summary.simulations) == (2, 2)
    assert summary.work() == {name: sum(r[name] for r in records) for name in WORK_FIELDS}
    assert summary.work()["committed_instructions"] >= sum(job.window for job in jobs)


def test_a_job_record_without_its_work_is_a_named_error(tmp_path, capsys):
    path = tmp_path / "bad.ledger.jsonl"
    LedgerWriter(path).close()
    job = {"record": "job", "fingerprint": "a", "job": "a/b/w1", "seconds": "1"}
    path.write_text(path.read_text() + json.dumps(job) + "\n")
    with pytest.raises(LedgerSchemaError, match=":2: invalid row: job record field 'seconds'"):
        summarize_ledgers([tmp_path])
    assert obs_main(["report", str(tmp_path)]) == 1
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
    for section in ("Campaign", "Work", "Slowest jobs", "µs per processed edge"):
        assert section in text
    assert summary.fingerprint_digest()[:16] in text
    assert all(job["job"] in text for job in summary.jobs)
    markdown = render_report(summary, markdown=True)
    assert "## Slowest jobs" in markdown
    assert "| field | value |" in markdown
    assert "(no simulated jobs)" in render_report(LedgerSummary())


def test_report_lists_the_slowest_jobs_with_their_us_per_edge():
    work = {"committed_instructions": 100, "skipped_edges": 0, "configuration_changes": 0}
    summary = LedgerSummary()
    for index in range(SLOWEST_JOBS + 2):
        job = {"fingerprint": str(index), "job": f"job-{index}", "seconds": index / 100}
        summary.jobs.append({**job, "processed_edges": 1_000, **work})
    lines = render_report(summary).splitlines()
    rows = [line.split() for line in lines[lines.index("Slowest jobs") + 4 :]]
    assert [row[0] for row in rows] == [f"job-{index}" for index in range(SLOWEST_JOBS + 1, 1, -1)]
    assert rows[0][1:3] == ["0.110", "110.0"]


def test_render_report_with_store(tmp_path):
    summary = summarize_ledgers([_ledgered_run(tmp_path)])
    store = inspect_store(tmp_path / "cache")
    text = render_report(summary, store=store)
    assert "Result store" in text
    assert str(tmp_path / "cache") in text


# ------------------------------------------------------------ CLI surfaces


def test_obs_ledger_cli_summarize_report(tmp_path, capsys):
    ledgers = str(_ledgered_run(tmp_path, label="cli"))

    assert obs_main(["report", ledgers, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["batches"], payload["simulations"], payload["unique_jobs"]) == (1, 4, 4)
    assert payload["work"] == summarize_ledgers([ledgers]).work()
    assert payload["work"]["committed_instructions"] >= 4 * 1_500
    assert payload["work"]["processed_edges"] > 0
    # The JSON form carries no store health, so a store is refused.
    assert obs_main(["report", ledgers, "--json", "--store", str(tmp_path / "cache")]) == 2

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
    rendered = report_path.read_text(encoding="utf-8")
    assert "## Work" in rendered
    assert "## Slowest jobs" in rendered
    assert "## Result store" in rendered


def test_ledger_written_by_the_previous_build_is_rejected_by_the_cli(tmp_path, capsys):
    """The previous build wrote schema 1, whose records carry no work."""
    parent = KINDS["ledger"]
    (tmp_path / "matrix.ledger.jsonl").write_text(parent.parent_header + parent.parent_row)
    for command in (["report", "--json"], ["report"]):
        assert obs_main([*command, str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "schema 1, but this build reads schema 2" in captured.err


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
