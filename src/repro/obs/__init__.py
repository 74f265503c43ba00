"""Telemetry and observability for the simulator and the experiment engine.

Three layers, all observation-only (nothing here may influence a simulated
result — the golden digests are pinned bit-identical with tracing on and
off):

- :mod:`repro.obs.events` / :mod:`repro.obs.recorder` — typed,
  schema-versioned trace events from the processor's instrumentation hooks
  (controller decisions, reconfigurations, frequency changes, sync
  penalties, work-horizon skips), recorded through a
  :class:`TraceRecorder` into bounded ring buffers and JSONL files.
- :mod:`repro.obs.metrics` — :class:`EngineMetrics`: per-job wall-clock and
  queue-latency histograms plus worker utilization, accumulated by the
  experiment engine and surfaced in campaign/sweep summaries; snapshots
  round-trip through ``to_dict``/``from_dict`` and fuse with ``merge``.
- :mod:`repro.obs.ledger` — the persistent, append-only run ledger
  (JSONL): durable per-batch campaign accounting that ``--ledger`` runs
  write and ``ledger summarize``/``report`` fuse into one campaign view.
- :mod:`repro.obs.records` — the schema-versioned JSONL container that
  trace files and ledgers share: header builder, the one reader and the
  :class:`RecordFileError` base of both files' errors.
- :mod:`repro.obs.report` — the rendered campaign report (throughput,
  histograms, store health, reconfiguration totals).
- :mod:`repro.obs.logging` — the shared stdlib-logging setup
  (``-v``/``-q``) every ``python -m repro.*`` CLI adopts.

``python -m repro.obs`` (:mod:`repro.obs.cli`) records traces and renders
them (``summarize``, ``timeline``, ``diff``) and reads run ledgers
(``ledger summarize``, ``report``).

This package ``__init__`` deliberately imports only the engine-independent
modules: :mod:`repro.engine.job` imports :class:`TraceOptions` from here,
so pulling :mod:`repro.obs.driver` (which imports the engine) in at package
level would create an import cycle.
"""

from __future__ import annotations

from repro.obs.events import (
    CONTROLLER_INTERVAL,
    EVENT_TYPES,
    FREQUENCY_CHANGE,
    HORIZON_SKIP,
    PHASE_BOUNDARY,
    RECONFIGURATION,
    SCHEMA_VERSION,
    SYNC_PENALTY,
    TraceEvent,
    TraceSchemaError,
)
from repro.obs.ledger import (
    LEDGER_SCHEMA_VERSION,
    LedgerSchemaError,
    LedgerSummary,
    LedgerWriter,
    open_ledger,
    read_ledger,
    summarize_ledgers,
)
from repro.obs.logging import add_logging_arguments, configure_logging, get_logger
from repro.obs.metrics import EngineMetrics, Histogram
from repro.obs.options import TraceOptions
from repro.obs.recorder import JsonlSink, RingBufferSink, TraceRecorder, read_trace
from repro.obs.records import RecordFileError

__all__ = [
    "CONTROLLER_INTERVAL",
    "EVENT_TYPES",
    "EngineMetrics",
    "FREQUENCY_CHANGE",
    "HORIZON_SKIP",
    "Histogram",
    "JsonlSink",
    "LEDGER_SCHEMA_VERSION",
    "LedgerSchemaError",
    "LedgerSummary",
    "LedgerWriter",
    "PHASE_BOUNDARY",
    "RECONFIGURATION",
    "RecordFileError",
    "RingBufferSink",
    "SCHEMA_VERSION",
    "SYNC_PENALTY",
    "TraceEvent",
    "TraceOptions",
    "TraceRecorder",
    "TraceSchemaError",
    "add_logging_arguments",
    "configure_logging",
    "get_logger",
    "open_ledger",
    "read_ledger",
    "read_trace",
    "summarize_ledgers",
]
