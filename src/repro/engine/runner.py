"""The engine-owned job runner: one :class:`SimulationJob` in, one result out.

``run_job`` is a module-level function so executors can ship it to worker
processes by reference; it reproduces exactly the construction sequence the
sweep layer historically performed inline (spec build, controller defaults,
deterministic trace, processor run).

Tracing: when the job carries :class:`~repro.obs.options.TraceOptions` (or
the caller passes a ready-made recorder), the processor is handed a
:class:`~repro.obs.recorder.TraceRecorder` and the run's event stream is
written to the configured JSONL file.  This is strictly observation-only —
the result is bit-identical to the untraced run — and the trace options are
excluded from the job fingerprint, so the engine's result cache will serve
a traced job from an untraced twin's entry *without simulating* (and thus
without writing a trace).  Drivers that need the trace file call
``run_job`` directly, bypassing the cache.
"""

from __future__ import annotations

from repro.analysis.metrics import RunResult
from repro.core.processor import MCDProcessor
from repro.engine.job import SimulationJob, make_trace
from repro.obs.recorder import JsonlSink, TraceRecorder


def _recorder_for(job: SimulationJob) -> TraceRecorder:
    """Build the JSONL-backed recorder described by ``job.trace``."""
    options = job.trace
    assert options is not None
    sink = JsonlSink(
        options.path,
        meta={"job": job.describe(), "fingerprint": job.fingerprint()},
    )
    return TraceRecorder(
        [sink], event_types=options.events, sampling=options.sampling
    )


def run_job(job: SimulationJob, *, recorder: TraceRecorder | None = None) -> RunResult:
    """Simulate *job* and return its :class:`RunResult`.

    *recorder* overrides the job's own :class:`TraceOptions`; when it is
    ``None`` and the job carries trace options, a JSONL-backed recorder is
    built from them and closed (flushing the file) when the run finishes.
    """
    owns_recorder = False
    if recorder is None and job.trace is not None:
        recorder = _recorder_for(job)
        owns_recorder = True
    processor = MCDProcessor(
        job.build_spec(),
        control=job.resolved_control(),
        phase_adaptive=job.phase_adaptive,
        seed=job.seed,
        jitter_fraction=job.jitter_fraction,
        sync_window_fraction=job.resolved_sync_window_fraction(),
        recorder=recorder,
    )
    # The trace object itself (not an iterator) so the processor fetches from
    # its compiled flat-column form, built once per (profile, seed) per
    # process and shared by every job on the same cached trace.
    trace = make_trace(job.profile, seed=job.trace_seed)
    try:
        return processor.run(
            trace,
            max_instructions=job.resolved_window(),
            warmup_instructions=job.resolved_warmup(),
            workload_name=job.profile.name,
        )
    finally:
        if owns_recorder:
            assert recorder is not None
            recorder.close()
