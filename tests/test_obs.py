"""Tests for the telemetry subsystem (:mod:`repro.obs`).

The load-bearing property is at the top: tracing is observation-only, so a
traced run and an untraced run of the same job produce *bit-identical*
result digests — the golden values pinned in ``tests/test_golden_values.py``
must hold with a recorder attached.  The rest covers the recorder machinery
(event-type validation, JSONL schema round-trip) and the ``python -m
repro.obs`` CLI.
"""

from __future__ import annotations

import json

import pytest

from golden_digests import (
    ENERGY_GOLDEN_DIGESTS,
    energy_digest,
    golden_jobs,
    result_digest,
)
from repro.engine import run_job
from repro.engine.cache import CacheStats
from repro.obs.cli import main as obs_main
from repro.obs.driver import resolve_target
from repro.obs.events import CONTROLLER_INTERVAL, EVENT_TYPES, RECONFIGURATION, TraceEvent
from repro.obs.recorder import JsonlSink, TraceRecorder, read_trace
from repro.workloads import workload_names
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
#: workload (the controller hooks fire) plus a jittered one.
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


# ------------------------------------------------------------- recorder


def test_recorder_rejects_an_unknown_event_type_by_name():
    sink = ListSink()
    recorder = TraceRecorder([sink])
    recorder.emit(CONTROLLER_INTERVAL, 10, 1, structure="dcache")
    with pytest.raises(ValueError, match="'sync-penalty'"):
        recorder.emit("sync-penalty", 20, 1, producer="integer")
    assert recorder.emitted == {CONTROLLER_INTERVAL: 1}
    assert len(sink.events) == 1


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    sink = JsonlSink(path, meta={"target": "unit-test"})
    recorder = TraceRecorder([sink])
    recorder.emit(CONTROLLER_INTERVAL, 1000, 42, structure="dcache", best_index=1)
    recorder.emit(RECONFIGURATION, 2000, 43, structure="int-queue")
    recorder.close()
    meta, events = read_trace(path)
    assert meta == {"target": "unit-test"}
    assert [event.type for event in events] == [CONTROLLER_INTERVAL, RECONFIGURATION]
    assert events[0].data == {"structure": "dcache", "best_index": 1}
    assert events[1].time_ps == 2000 and events[1].committed == 43


def test_trace_event_validates_its_type():
    with pytest.raises(ValueError):
        TraceEvent(type="bogus", time_ps=0, committed=0)
    event = TraceEvent(type=RECONFIGURATION, time_ps=5, committed=2, data={"a": 1})
    assert TraceEvent.from_dict(event.to_dict()) == event
    assert EVENT_TYPES  # the registry is non-empty and frozen
    with pytest.raises(AttributeError):
        event.type = CONTROLLER_INTERVAL  # frozen


# -------------------------------------------------------------- cache stats


def test_cache_stats_describe():
    stats = CacheStats(memory_hits=2, disk_hits=1, misses=3, stores=4)
    assert stats.describe() == "cache: 3 hit(s) (2 memory, 1 disk), 3 miss(es), 4 store(s)"


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
        recorder.emit(RECONFIGURATION, 1, 1, structure="dcache")
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
    # The trace holds only the decisions: 2 per cache and 19 per issue queue.
    assert [event.type for event in events] == [CONTROLLER_INTERVAL] * 42
    intervals = [event.data for event in events]
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


@pytest.mark.parametrize(
    "argv",
    [
        ["no-such-target"],
        ["gzip", "--window", "0"],
        ["gzip", "--warmup", "-5"],
        ["gzip", "--out", ""],
    ],
    ids=[
        "unknown-target",
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
