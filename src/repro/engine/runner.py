"""The engine-owned job runner: one :class:`SimulationJob` in, one result out.

``run_job`` is a module-level function so executors can ship it to worker
processes by reference; it reproduces exactly the construction sequence the
sweep layer historically performed inline (spec build, controller defaults,
deterministic trace, processor run).

Tracing: a caller that passes a :class:`~repro.obs.recorder.TraceRecorder`
receives the run's event stream through it (``python -m repro.obs trace``
does, with a JSONL sink).  This is strictly observation-only — the result is
bit-identical to the untraced run — so the recorder is not part of the job
or its fingerprint, and a traced run goes through ``run_job`` directly,
never through the engine's result cache.
"""

from __future__ import annotations

from repro.analysis.metrics import RunResult
from repro.core.processor import MCDProcessor
from repro.engine.job import SimulationJob, make_trace
from repro.obs.recorder import TraceRecorder


def run_job(job: SimulationJob, *, recorder: TraceRecorder | None = None) -> RunResult:
    """Simulate *job* and return its :class:`RunResult`.

    *recorder*, when given, receives the run's trace events; the caller
    owns it and closes it.
    """
    processor = MCDProcessor(
        job.build_spec(),
        control=job.resolved_control(),
        phase_adaptive=job.phase_adaptive,
        seed=job.seed,
        jitter_fraction=job.jitter_fraction,
        sync_window_fraction=job.resolved_sync_window_fraction(),
        recorder=recorder,
    )
    # The compiled columns are written once per (profile, seed) per process
    # and shared by every job on the same cached trace.
    return processor.run(
        make_trace(job.profile, seed=job.trace_seed),
        max_instructions=job.resolved_window(),
        warmup_instructions=job.resolved_warmup(),
        workload_name=job.profile.name,
    )
