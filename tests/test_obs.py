"""Tests for the telemetry subsystem (:mod:`repro.obs`).

The load-bearing property is at the top: tracing is observation-only, so a
traced run and an untraced run of the same job produce *bit-identical*
result digests — the golden values pinned in ``tests/test_golden_values.py``
must hold with a recorder attached.  The rest covers the recorder machinery
(type filtering, deterministic sampling, JSONL schema round-trip), the shared
logging setup and the ``python -m repro.obs`` CLI.
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
from repro.obs.recorder import JsonlSink, TraceRecorder, read_trace
from repro.workloads import get_workload, workload_names
from test_golden_values import GOLDEN_DIGESTS

class ListSink:
    """Keep every event the recorder passes on, in emission order."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def write(self, event: TraceEvent) -> None:
        self.events.append(event)

    def close(self) -> None:
        """Nothing to release; the events stay readable."""


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
    sink = ListSink()
    recorder = TraceRecorder([sink])
    job = golden_jobs()[name]
    result = run_job(job, recorder=recorder)
    assert result_digest(result) == GOLDEN_DIGESTS[name], (
        f"tracing changed the RunResult of {name}; instrumentation must be "
        "observation-only"
    )
    assert sink.events, "the traced golden job emitted no events at all"


def test_traced_run_matches_golden_energy_digest():
    name = "gcc/phase_adaptive"
    recorder = TraceRecorder([ListSink()])
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
    sink = ListSink()
    recorder = TraceRecorder([sink], event_types=(SYNC_PENALTY, HORIZON_SKIP))
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
    events = sink.events
    assert len(events) == sum(recorder.emitted.values())
    penalties = [event for event in events if event.type == SYNC_PENALTY]
    assert len(penalties) == result.sync_penalties > 0
    skipped = sum(event.data["edges"] for event in events if event.type == HORIZON_SKIP)
    assert skipped == result.horizon_skipped_edges
    assert (skipped > 0) is skip


# ------------------------------------------------------------- recorder


def test_recorder_type_filter_and_counters():
    sink = ListSink()
    recorder = TraceRecorder([sink], event_types=[CONTROLLER_INTERVAL])
    assert recorder.wants(CONTROLLER_INTERVAL)
    assert not recorder.wants(SYNC_PENALTY)
    recorder.emit(CONTROLLER_INTERVAL, 10, 1, structure="dcache")
    recorder.emit(SYNC_PENALTY, 20, 1, producer="integer")
    assert recorder.seen == {CONTROLLER_INTERVAL: 1}
    assert recorder.emitted == {CONTROLLER_INTERVAL: 1}
    assert len(sink.events) == 1
    with pytest.raises(ValueError):
        TraceRecorder([], event_types=["bogus"])


def test_sampling_is_deterministic_and_keeps_the_first_event():
    def emitted_times(stride):
        sink = ListSink()
        recorder = TraceRecorder([sink], sampling={SYNC_PENALTY: stride})
        for index in range(10):
            recorder.emit(SYNC_PENALTY, index, index)
        return [event.time_ps for event in sink.events]

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


#: The decision every controller-interval event carries.
DECISION_KEYS = {
    "structure",
    "configurations",
    "previous_index",
    "best_index",
    "raw_best_index",
    "values",
    "margin",
    "suppressed_by",
    "pending_candidate",
    "pending_count",
    "changed",
}


def test_every_controller_interval_has_one_shape(tmp_path, capsys):
    path = tmp_path / "adv2x.trace.jsonl"
    assert obs_main(["trace", "adv-period-2x-interval", "--quick", "--out", str(path)]) == 0
    _, events = read_trace(path)
    intervals = [event.data for event in events if event.type == CONTROLLER_INTERVAL]
    extras = {
        "dcache": {"interval_instructions", "interval_duration_ps"},
        "icache": {"interval_instructions", "interval_duration_ps"},
        "int-queue": {"ilp_estimates"},
        "fp-queue": {"ilp_estimates"},
    }
    assert {data["structure"] for data in intervals} == set(extras)
    for data in intervals:
        assert set(data) == DECISION_KEYS | extras[data["structure"]]
        configurations = data["configurations"]
        assert len(data["values"]) == len(configurations)
        for key in ("previous_index", "best_index", "raw_best_index"):
            assert 0 <= data[key] < len(configurations)
    queue_sizes = {tuple(d["configurations"]) for d in intervals if "ilp_estimates" in d}
    assert queue_sizes == {(16, 32, 48, 64)}
    # The timeline prints every structure's legend from ``configurations``.
    capsys.readouterr()
    assert obs_main(["timeline", str(path)]) == 0
    out = capsys.readouterr().out
    for legend in (
        "dcache (0=32k1W/256k1W 1=64k2W/512k2W 2=128k4W/1024k4W 3=256k8W/2048k8W)",
        "icache (0=16k1W 1=32k2W 2=48k3W 3=64k4W)",
        "int-queue (0=16 1=32 2=48 3=64)",
        "fp-queue (0=16 1=32 2=48 3=64)",
    ):
        assert f"  {legend}\n" in out


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
        ["gzip", "--window", "0"],
        ["gzip", "--warmup", "-5"],
        ["gzip", "--out", ""],
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
        "zero-window",
        "negative-warmup",
        "empty-out",
    ],
)
def test_cli_trace_rejects_unknown_target(tmp_path, capsys, argv):
    out = tmp_path / "trace.jsonl"
    # *argv* comes last, so its own --out overrides the default one.
    assert obs_main(["trace", "--quick", "--out", str(out), *argv]) == 2
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
