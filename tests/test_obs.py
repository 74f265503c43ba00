"""Tests for the telemetry subsystem (:mod:`repro.obs`).

The load-bearing property is at the top: tracing is observation-only, so a
traced run and an untraced run of the same job produce *bit-identical*
result digests — the golden values pinned in ``tests/test_golden_values.py``
must hold with a recorder attached.  The rest covers the recorder machinery
(ring bounds, deterministic sampling, JSONL schema round-trip), the job
integration (fingerprint exclusion), the engine metrics accumulator, the
shared logging setup and the ``python -m repro.obs`` CLI.
"""

from __future__ import annotations

import json
import logging

import pytest

from golden_digests import (
    ENERGY_GOLDEN_DIGESTS,
    energy_digest,
    golden_jobs,
    result_digest,
)
from repro.core.processor import MCDProcessor
from repro.engine import (
    SimulationJob,
    SpecKind,
    TraceOptions,
    canonical_payload,
    make_trace,
    run_job,
)
from repro.engine.cache import CacheStats
from repro.obs.cli import main as obs_main
from repro.obs.driver import resolve_target
from repro.obs.events import (
    CONTROLLER_INTERVAL,
    EVENT_TYPES,
    HORIZON_SKIP,
    SYNC_PENALTY,
    TraceEvent,
)
from repro.obs.logging import configure_logging
from repro.obs.metrics import EngineMetrics, Histogram
from repro.obs.recorder import (
    JsonlSink,
    RingBufferSink,
    TraceRecorder,
    read_trace,
)
from repro.workloads import get_workload, workload_names
from test_golden_values import GOLDEN_DIGESTS

#: Golden jobs re-run with a recorder attached: one phase-adaptive job per
#: workload (the controller hooks fire) plus a jittered one (the sync-penalty
#: and jittered work-horizon skip hooks fire).
_TRACED_GOLDEN_JOBS = (
    "gcc/phase_adaptive",
    "em3d/phase_adaptive",
    "gcc/phase_adaptive_jittered",
)


# ------------------------------------------------------------ bit-identity


@pytest.mark.parametrize("name", _TRACED_GOLDEN_JOBS)
def test_traced_run_matches_golden_timing_digest(name):
    """A recorder observing every event type must not move a golden digest."""
    ring = RingBufferSink(capacity=100_000)
    recorder = TraceRecorder([ring])
    job = golden_jobs()[name]
    result = run_job(job, recorder=recorder)
    assert result_digest(result) == GOLDEN_DIGESTS[name], (
        f"tracing changed the RunResult of {name}; instrumentation must be "
        "observation-only"
    )
    assert ring.events, "the traced golden job emitted no events at all"


def test_traced_run_matches_golden_energy_digest():
    name = "gcc/phase_adaptive"
    recorder = TraceRecorder([RingBufferSink(capacity=100_000)])
    result = run_job(golden_jobs()[name], recorder=recorder)
    assert energy_digest(result) == ENERGY_GOLDEN_DIGESTS[name]


def test_traced_and_untraced_runs_are_bit_identical(tmp_path):
    """Same job, one run traced to JSONL, one untraced: identical digests."""
    job = golden_jobs()["em3d/phase_adaptive"]
    untraced = run_job(job)
    sink = JsonlSink(tmp_path / "trace.jsonl")
    with TraceRecorder([sink]) as recorder:
        traced = run_job(job, recorder=recorder)
    assert result_digest(traced) == result_digest(untraced)
    assert energy_digest(traced) == energy_digest(untraced)
    _, events = read_trace(tmp_path / "trace.jsonl")
    assert events


@pytest.mark.parametrize("skip", [True, False], ids=["skip", "walk"])
def test_events_add_up_to_the_run_counters(skip):
    """On an unsampled MCD run, one sync-penalty event per recorded penalty
    (including those of commit attempts the work-horizon skip consumed), and
    horizon-skip events whose edges sum to the skipped-edge counter."""
    job = SimulationJob(
        profile=get_workload("gcc"),
        spec_kind=SpecKind.ADAPTIVE,
        window=1_500,
        warmup=1_000,
        jitter_fraction=0.05,
    )
    ring = RingBufferSink(capacity=1_000_000)
    recorder = TraceRecorder([ring], event_types=(SYNC_PENALTY, HORIZON_SKIP))
    processor = MCDProcessor(
        job.build_spec(),
        seed=job.seed,
        jitter_fraction=job.jitter_fraction,
        horizon_scheduling=skip,
        recorder=recorder,
    )
    result = processor.run(
        make_trace(job.profile, seed=job.trace_seed),
        max_instructions=job.resolved_window(),
        warmup_instructions=job.resolved_warmup(),
    )
    events = ring.events
    assert len(events) == sum(recorder.emitted.values())  # none fell off
    penalties = [event for event in events if event.type == SYNC_PENALTY]
    assert len(penalties) == result.sync_penalties > 0
    skipped = sum(event.data["edges"] for event in events if event.type == HORIZON_SKIP)
    assert skipped == result.horizon_skipped_edges
    assert (skipped > 0) is skip


# ------------------------------------------------------- job integration


def test_trace_options_do_not_change_the_fingerprint(tmp_path):
    profile = get_workload("gzip")
    plain = SimulationJob(profile=profile, window=800, warmup=800)
    traced = SimulationJob(
        profile=profile,
        window=800,
        warmup=800,
        trace=TraceOptions(path=str(tmp_path / "t.jsonl")),
    )
    assert plain.fingerprint() == traced.fingerprint()
    # payload() is the fingerprint input; the trace options must not appear.
    assert plain.payload() == traced.payload()
    assert str(tmp_path) not in json.dumps(canonical_payload(traced.payload()))


def test_job_trace_field_rejects_non_trace_options():
    with pytest.raises(TypeError):
        SimulationJob(profile=get_workload("gzip"), trace="trace.jsonl")


def test_runner_builds_recorder_from_job_trace_options(tmp_path):
    path = tmp_path / "job.trace.jsonl"
    job = SimulationJob(
        profile=get_workload("gzip"),
        window=400,
        warmup=400,
        phase_adaptive=True,
        trace=TraceOptions(path=str(path)),
    )
    run_job(job)
    meta, events = read_trace(path)
    assert meta["fingerprint"] == job.fingerprint()
    assert events, "a phase-adaptive run should emit at least one event"


def test_trace_options_validation():
    with pytest.raises(ValueError):
        TraceOptions(path="")
    with pytest.raises(ValueError):
        TraceOptions(path="t.jsonl", events=("no-such-event",))
    with pytest.raises(ValueError):
        TraceOptions(path="t.jsonl", sampling={"no-such-event": 2})
    with pytest.raises(ValueError):
        TraceOptions(path="t.jsonl", sampling={SYNC_PENALTY: 0})
    options = TraceOptions(
        path="t.jsonl", events=[CONTROLLER_INTERVAL], sampling={SYNC_PENALTY: "3"}
    )
    assert options.events == (CONTROLLER_INTERVAL,)
    assert options.sampling == {SYNC_PENALTY: 3}


# ------------------------------------------------------------- recorder


def test_ring_buffer_sink_is_bounded():
    ring = RingBufferSink(capacity=3)
    recorder = TraceRecorder([ring])
    for index in range(10):
        recorder.emit(SYNC_PENALTY, index, index, producer="integer")
    assert len(ring) == 3
    assert [event.time_ps for event in ring.events] == [7, 8, 9]
    with pytest.raises(ValueError):
        RingBufferSink(capacity=0)


def test_recorder_type_filter_and_counters():
    ring = RingBufferSink(capacity=100)
    recorder = TraceRecorder([ring], event_types=[CONTROLLER_INTERVAL])
    assert recorder.wants(CONTROLLER_INTERVAL)
    assert not recorder.wants(SYNC_PENALTY)
    recorder.emit(CONTROLLER_INTERVAL, 10, 1, structure="dcache")
    recorder.emit(SYNC_PENALTY, 20, 1, producer="integer")
    assert recorder.seen == {CONTROLLER_INTERVAL: 1}
    assert recorder.emitted == {CONTROLLER_INTERVAL: 1}
    assert len(ring) == 1
    with pytest.raises(ValueError):
        TraceRecorder([], event_types=["bogus"])


def test_sampling_is_deterministic_and_keeps_the_first_event():
    def emitted_times(stride):
        ring = RingBufferSink(capacity=100)
        recorder = TraceRecorder([ring], sampling={SYNC_PENALTY: stride})
        for index in range(10):
            recorder.emit(SYNC_PENALTY, index, index)
        return [event.time_ps for event in ring.events]

    # Keeps the 1st, (n+1)-th, ... event, counted in emission order.
    assert emitted_times(3) == [0, 3, 6, 9]
    # Identical inputs produce the identical sampled stream (no RNG/clock).
    assert emitted_times(3) == emitted_times(3)
    assert emitted_times(1) == list(range(10))
    with pytest.raises(ValueError):
        TraceRecorder([], sampling={SYNC_PENALTY: 0})
    with pytest.raises(ValueError):
        TraceRecorder([], sampling={"bogus": 2})


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    sink = JsonlSink(path, meta={"target": "unit-test"})
    recorder = TraceRecorder([sink])
    recorder.emit(CONTROLLER_INTERVAL, 1000, 42, structure="dcache", best_index=1)
    recorder.emit(HORIZON_SKIP, 2000, 43, edges=7)
    recorder.close()
    meta, events = read_trace(path)
    assert meta == {"target": "unit-test"}
    assert [event.type for event in events] == [CONTROLLER_INTERVAL, HORIZON_SKIP]
    assert events[0].data == {"structure": "dcache", "best_index": 1}
    assert events[1].time_ps == 2000 and events[1].committed == 43


def test_trace_event_validates_its_type():
    with pytest.raises(ValueError):
        TraceEvent(type="bogus", time_ps=0, committed=0)
    event = TraceEvent(type=SYNC_PENALTY, time_ps=5, committed=2, data={"a": 1})
    assert TraceEvent.from_dict(event.to_dict()) == event
    assert EVENT_TYPES  # the registry is non-empty and frozen
    with pytest.raises(AttributeError):
        event.type = CONTROLLER_INTERVAL  # frozen


# ------------------------------------------------------------- metrics


def test_histogram_statistics():
    histogram = Histogram()
    for value in (0.002, 0.02, 0.2, 2.0):
        histogram.record(value)
    assert histogram.count == 4
    assert histogram.mean == pytest.approx(0.5555, rel=1e-3)
    assert histogram.min == 0.002 and histogram.max == 2.0
    # Bucket-resolution percentiles return a bucket's upper bound.
    assert histogram.percentile(0.5) in (0.03, 0.1)
    assert histogram.percentile(1.0) >= 2.0
    with pytest.raises(ValueError):
        histogram.percentile(0.0)
    with pytest.raises(ValueError):
        Histogram(bounds=(1.0, 0.5))
    assert Histogram().percentile(0.5) == 0.0


def test_engine_metrics_accounting():
    metrics = EngineMetrics()
    assert metrics.summary_lines() == [
        "engine metrics: no executor work (all jobs cached or deduplicated)"
    ]
    metrics.record_job(1.0, 1.0)
    metrics.record_job(1.0, 2.0)
    metrics.record_batch(elapsed_seconds=2.0, workers=2)
    assert metrics.jobs_completed == 2
    assert metrics.batches == 1
    assert metrics.worker_utilization == pytest.approx(0.5)
    snapshot = metrics.to_dict()
    assert snapshot["jobs_completed"] == 2
    assert snapshot["job_seconds"]["count"] == 2
    lines = metrics.summary_lines()
    assert lines[0].startswith("engine metrics: 2 job(s) in 1 batch(es)")
    # Utilization is clamped at 100% even if busy time over-counts capacity.
    metrics.record_job(100.0, 0.0)
    assert metrics.worker_utilization == 1.0


def test_engine_populates_metrics():
    from repro.engine import ExperimentEngine, ResultCache, SerialExecutor

    engine = ExperimentEngine(SerialExecutor(), ResultCache())
    job = SimulationJob(profile=get_workload("gzip"), window=400, warmup=400)
    engine.run_all([job])
    assert engine.metrics.jobs_completed == 1
    assert engine.metrics.batches == 1
    # A warm re-run is served from the cache: no new executor work.
    engine.run_all([job])
    assert engine.metrics.jobs_completed == 1
    assert engine.cache.stats.hits >= 1


# -------------------------------------------------------------- cache stats


def test_cache_stats_describe():
    stats = CacheStats(memory_hits=2, disk_hits=1, misses=3, stores=4)
    assert stats.describe() == "cache: 3 hit(s) (2 memory, 1 disk), 3 miss(es), 4 store(s)"


# ------------------------------------------------------------------ logging


def test_configure_logging_is_idempotent():
    logger = configure_logging(verbosity=0)
    configure_logging(verbosity=0)
    flagged = [
        handler
        for handler in logger.handlers
        if getattr(handler, "_repro_obs_handler", False)
    ]
    assert len(flagged) == 1
    assert logger.level == logging.WARNING
    assert configure_logging(verbosity=1).level == logging.INFO
    assert configure_logging(verbosity=2).level == logging.DEBUG
    assert configure_logging(verbosity=-1).level == logging.ERROR
    assert configure_logging(verbosity=99).level == logging.DEBUG
    configure_logging(verbosity=0)  # restore the default for other tests


# ---------------------------------------------------------------------- CLI


@pytest.fixture(scope="module")
def cli_trace(tmp_path_factory):
    """One small traced CLI run shared by the rendering smoke tests."""
    path = tmp_path_factory.mktemp("obs") / "gzip.trace.jsonl"
    code = obs_main(
        [
            "trace",
            "gzip",
            "--window",
            "400",
            "--warmup",
            "400",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    return path


def test_cli_trace_writes_a_readable_trace(cli_trace, capsys):
    meta, events = read_trace(cli_trace)
    assert meta["target"] == "gzip"
    assert meta["kind"] == "workload"
    assert events


def test_cli_summarize(cli_trace, capsys):
    assert obs_main(["summarize", str(cli_trace)]) == 0
    out = capsys.readouterr().out
    assert "event(s):" in out
    assert obs_main(["summarize", str(cli_trace), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["meta"]["target"] == "gzip"
    assert payload["event_counts"]


def test_cli_timeline(cli_trace, capsys):
    assert obs_main(["timeline", str(cli_trace)]) == 0
    out = capsys.readouterr().out
    assert "one column per controller interval" in out


@pytest.mark.parametrize(
    "option, message",
    [
        (["--structure", "nope"], "error: structure 'nope' not in trace"),
        (["--width", "0"], "error: --width must be at least 1, got 0"),
        (["--width", "-3"], "error: --width must be at least 1, got -3"),
    ],
    ids=["unknown-structure", "zero-width", "negative-width"],
)
def test_cli_timeline_rejects_bad_input(cli_trace, capsys, option, message):
    """Bad input prints one error line and exits 2, like `trace`'s."""
    assert obs_main(["timeline", str(cli_trace), *option]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(message)


def test_cli_diff(cli_trace, tmp_path, capsys):
    assert obs_main(["diff", str(cli_trace), str(cli_trace)]) == 0
    assert "traces are equivalent" in capsys.readouterr().out

    other = tmp_path / "other.jsonl"
    sink = JsonlSink(other, meta={"target": "synthetic"})
    with TraceRecorder([sink]) as recorder:
        recorder.emit(SYNC_PENALTY, 1, 1, producer="integer")
    assert obs_main(["diff", str(cli_trace), str(other)]) == 1


def test_cli_trace_sampling_and_event_filter(tmp_path, capsys):
    path = tmp_path / "sampled.jsonl"
    code = obs_main(
        [
            "trace",
            "gzip",
            "--window",
            "400",
            "--warmup",
            "400",
            "--out",
            str(path),
            "--events",
            f"{CONTROLLER_INTERVAL},{HORIZON_SKIP}",
            "--sample",
            f"{HORIZON_SKIP}=10",
        ]
    )
    assert code == 0
    _, events = read_trace(path)
    types = {event.type for event in events}
    assert types <= {CONTROLLER_INTERVAL, HORIZON_SKIP}
    out = capsys.readouterr().out
    assert "seen" in out  # the sampled type reports "N (of M seen)"


@pytest.mark.parametrize(
    "argv",
    [
        ["no-such-target"],
        ["gzip", "--sample", f"{SYNC_PENALTY}=x"],
        ["gzip", "--sample", f"{SYNC_PENALTY}=0"],
        ["gzip", "--sample", f"{SYNC_PENALTY}=-1"],
        ["gzip", "--sample", SYNC_PENALTY],
        ["gzip", "--sample", "nosuch=2"],
        ["gzip", "--events", "nosuch"],
        ["gzip", "--events", f"{SYNC_PENALTY},nosuch"],
    ],
    ids=[
        "unknown-target",
        "sample-not-a-number",
        "sample-zero-stride",
        "sample-negative-stride",
        "sample-missing-stride",
        "sample-unknown-event",
        "unknown-event",
        "known-and-unknown-event",
    ],
)
def test_cli_trace_rejects_unknown_target(tmp_path, capsys, argv):
    out = tmp_path / "trace.jsonl"
    assert obs_main(["trace", *argv, "--quick", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_unknown_target_error_points_at_scenarios_and_workloads():
    with pytest.raises(KeyError) as excinfo:
        resolve_target("no-such-target")
    message = excinfo.value.args[0]
    assert "'no-such-target'" in message
    assert "python -m repro.scenarios list" in message
    assert all(name in message for name in workload_names())
