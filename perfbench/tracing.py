"""Spans timed from the benchmark's own files, and the traced job runner.

The traced runner performs the steps of ``repro.engine.runner.run_job``
through public calls and records a span around each; all spans of one job
carry its fingerprint as their identifier.  The stages behind
``MCDProcessor.run`` (warm-up, controller build, main loop, result build)
have no public entry.  Each runs once per job, so it is timed by wrapping
the bound method on the processor instance; nothing that runs once per
clock edge is wrapped.  A stage the processor no longer has is not timed,
and its time stays in the enclosing ``simulate`` span.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.analysis.metrics import RunResult
from repro.core.processor import MCDProcessor
from repro.energy import EnergyReport, energy_report
from repro.engine import ResultCache, SimulationJob, make_trace, run_job

#: The ``MCDProcessor.run`` stages wrapped on each instance, with span names.
STAGES = (
    ("_warm_up", "warmup"),
    ("_build_controllers", "controllers"),
    ("_main_loop", "main_loop"),
    ("_build_result", "result_build"),
)


@dataclass(slots=True)
class Span:
    """One timed step; ``parent`` indexes the recorder's spans (-1: none)."""

    name: str
    ident: str
    parent: int
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Spans kept in memory; a span's parent is the span open when it began."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, ident: str = "") -> Iterator[Span]:
        """Time the ``with`` body; *ident* defaults to the parent's."""
        parent = self._open[-1] if self._open else -1
        if not ident and parent >= 0:
            ident = self.spans[parent].ident
        record = Span(name, ident, parent, time.perf_counter())
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def wrap(self, function: Callable[..., Any], name: str) -> Callable[..., Any]:
        """*function*, with every call recorded as a span named *name*."""

        def timed(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return function(*args, **kwargs)

        return timed


def write_spans(path: Path, recorders: list[SpanRecorder]) -> None:
    """Write the spans of *recorders* to *path*, one JSON object per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for repeat, recorder in enumerate(recorders):
            for index, span in enumerate(recorder.spans):
                record = {
                    "repeat": repeat,
                    "index": index,
                    "parent": span.parent,
                    "name": span.name,
                    "id": span.ident,
                    "start_s": span.start,
                    "end_s": span.end,
                }
                handle.write(json.dumps(record) + "\n")


@dataclass(slots=True)
class JobRecord:
    """One simulated job, its result and the energy report priced for it."""

    job: SimulationJob
    result: RunResult
    report: EnergyReport
    fingerprint: str = ""


def plain_runner(records: list[JobRecord]) -> Callable[[SimulationJob], RunResult]:
    """``run_job`` then energy pricing: the job runner of untraced repeats."""

    def runner(job: SimulationJob) -> RunResult:
        result = run_job(job)
        records.append(JobRecord(job, result, energy_report(result)))
        return result

    return runner


def traced_runner(
    recorder: SpanRecorder, records: list[JobRecord]
) -> Callable[[SimulationJob], RunResult]:
    """The steps of ``run_job`` then energy pricing, each one a span."""

    def runner(job: SimulationJob) -> RunResult:
        with recorder.span("job") as job_span:
            with recorder.span("fingerprint") as fingerprint_span:
                fingerprint = job.fingerprint()
            job_span.ident = fingerprint_span.ident = fingerprint
            with recorder.span("resolve"):
                spec = job.build_spec()
                control = job.resolved_control()
                sync_window = job.resolved_sync_window_fraction()
                window = job.resolved_window()
                warmup = job.resolved_warmup()
                trace = make_trace(job.profile, seed=job.trace_seed)
            with recorder.span("construct"):
                processor = MCDProcessor(
                    spec,
                    control=control,
                    phase_adaptive=job.phase_adaptive,
                    seed=job.seed,
                    jitter_fraction=job.jitter_fraction,
                    sync_window_fraction=sync_window,
                )
            for attribute, name in STAGES:
                stage = getattr(processor, attribute, None)
                if stage is not None:
                    setattr(processor, attribute, recorder.wrap(stage, name))
            with recorder.span("simulate"):
                result = processor.run(
                    trace,
                    max_instructions=window,
                    warmup_instructions=warmup,
                    workload_name=job.profile.name,
                )
            with recorder.span("energy"):
                report = energy_report(result)
        records.append(JobRecord(job, result, report, fingerprint))
        return result

    return runner


class TimedCache(ResultCache):
    """An in-memory result cache whose lookups and stores are spans.

    The engine calls them around the runner, so they sit beside a job's span
    in time; they carry the job's fingerprint as their identifier.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        super().__init__()
        self._recorder = recorder

    def get(self, fingerprint: str) -> RunResult | None:
        with self._recorder.span("cache_get", fingerprint):
            return super().get(fingerprint)

    def put(self, fingerprint: str, result: RunResult) -> None:
        with self._recorder.span("cache_put", fingerprint):
            super().put(fingerprint, result)
