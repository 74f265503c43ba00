"""Traced-run driver: record a telemetry trace for a scenario or workload.

The driver builds its job with the phase-adaptive recipe the campaign and
sweep layers use (:func:`repro.analysis.sweep.phase_adaptive_job`) and
executes it through :func:`repro.engine.runner.run_job` **directly**, never
through the engine cache: the recorder is not part of the job fingerprint,
so a warm cache would serve the result without simulating — and therefore
without producing a trace.

Scenario phase boundaries are synthesised here, not emitted by the
processor: the simulator has no notion of the scenario phase program (the
generator cycles phases by trace position), so the driver computes which
program boundaries fall inside the measured window and appends
``phase-boundary`` events keyed by committed-instruction position
(``time_ps=0`` — synthesised events carry no simulated time).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.metrics import RunResult
from repro.analysis.sweep import phase_adaptive_job
from repro.engine.job import DEFAULT_TRACE_SEED
from repro.engine.runner import run_job
from repro.obs.events import PHASE_BOUNDARY
from repro.obs.recorder import JsonlSink, TraceRecorder
from repro.scenarios.library import SCENARIOS
from repro.scenarios.spec import ScenarioSpec
from repro.workloads.characteristics import WorkloadProfile
from repro.workloads.suites import get_workload, workload_names

__all__ = ["TracedRun", "resolve_target", "run_traced"]


@dataclass(slots=True)
class TracedRun:
    """Outcome of one traced simulation."""

    result: RunResult
    path: str
    job_label: str
    scenario: ScenarioSpec | None
    #: Events delivered to the trace file, per type.
    emitted: dict[str, int]


def resolve_target(name: str) -> tuple[WorkloadProfile, ScenarioSpec | None]:
    """Resolve *name* as a scenario (preferred) or a benchmark workload."""
    spec = SCENARIOS.get(name)
    if spec is not None:
        return spec.build_profile(), spec
    try:
        return get_workload(name), None
    except KeyError:
        raise KeyError(
            f"unknown scenario or workload {name!r}; see "
            f"'python -m repro.scenarios list' for scenarios; known workloads: "
            f"{', '.join(sorted(workload_names()))}"
        ) from None


def _emit_phase_boundaries(
    recorder: TraceRecorder, spec: ScenarioSpec, *, window: int, warmup: int
) -> None:
    """Append the scenario's in-window phase boundaries to *recorder*.

    The generator cycles the phase program by trace position, so phase *i*
    begins at every ``k * cycle + sum(lengths[:i])``; boundaries landing in
    ``[warmup, warmup + window]`` map to committed position
    ``position - warmup``.  Position 0 (program start) is not a boundary.
    """
    phases = spec.phases
    if not phases:
        return
    offsets = []
    acc = 0
    for index, phase in enumerate(phases):
        offsets.append((acc, index, phase))
        acc += phase.length
    cycle = acc
    end = warmup + window
    base = (warmup // cycle) * cycle
    while base <= end:
        for offset, index, phase in offsets:
            position = base + offset
            if position == 0 or position < warmup or position > end:
                continue
            recorder.emit(
                PHASE_BOUNDARY,
                0,
                position - warmup,
                phase_index=index,
                trace_position=position,
                overrides={
                    key: phase.overrides[key] for key in sorted(phase.overrides)
                },
            )
        base += cycle


def run_traced(
    name: str,
    *,
    path: str,
    window: int | None = None,
    warmup: int | None = None,
    trace_seed: int = DEFAULT_TRACE_SEED,
    seed: int = 0,
) -> TracedRun:
    """Trace one phase-adaptive run of scenario/workload *name* to *path*."""
    profile, spec = resolve_target(name)
    job = phase_adaptive_job(
        profile, window=window, warmup=warmup, trace_seed=trace_seed, seed=seed
    )
    sink = JsonlSink(
        path,
        meta={
            "target": name,
            "kind": "scenario" if spec is not None else "workload",
            "job": job.describe(),
            "fingerprint": job.fingerprint(),
            "window": job.resolved_window(),
            "warmup": job.resolved_warmup(),
        },
    )
    recorder = TraceRecorder([sink])
    try:
        result = run_job(job, recorder=recorder)
        if spec is not None:
            _emit_phase_boundaries(
                recorder,
                spec,
                window=job.resolved_window(),
                warmup=job.resolved_warmup(),
            )
    finally:
        recorder.close()
    return TracedRun(
        result=result,
        path=path,
        job_label=job.describe(),
        scenario=spec,
        emitted=dict(recorder.emitted),
    )
