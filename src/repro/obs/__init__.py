"""Telemetry and observability for the simulator and the experiment engine.

Its modules are all observation-only (nothing here may influence a
simulated result — the golden digests are pinned bit-identical with tracing
and a ledger on and off):

- :mod:`repro.obs.events` / :mod:`repro.obs.recorder` — typed,
  schema-versioned trace events from the processor's instrumentation hooks
  (controller decisions, reconfigurations, frequency changes), recorded
  through a :class:`TraceRecorder` into JSONL files or any sink of the
  caller's.
- :mod:`repro.obs.ledger` — the persistent, append-only run ledger
  (JSONL): a record per submitted batch and one per simulated job (its
  seconds and work counters), which ``--ledger`` runs write and
  ``report`` sums into one campaign view.
- :mod:`repro.obs.records` — the schema-versioned JSONL container that
  trace files and ledgers share: header builder, the one reader and the
  :class:`RecordFileError` base of both files' errors.
- :mod:`repro.obs.report` — the rendered campaign report (work totals, the
  slowest jobs with their µs per processed edge, store health).
- :mod:`repro.obs.logging` — :func:`~repro.obs.logging.run_cli`, which every
  ``python -m repro.*`` entry point runs its ``main`` through.

``python -m repro.obs`` (:mod:`repro.obs.cli`) records traces and renders
them (``summarize``, ``timeline``, ``diff``) and reads run ledgers
(``report``).

This package ``__init__`` deliberately imports only the engine-independent
modules: the simulator core imports :mod:`repro.obs.events` and
:mod:`repro.obs.recorder`, so pulling :mod:`repro.obs.driver` (which imports
the experiment drivers, and through them the engine and the core) in at
package level would create an import cycle.
"""

from __future__ import annotations

from repro.obs.events import (
    CONTROLLER_INTERVAL,
    EVENT_TYPES,
    FREQUENCY_CHANGE,
    PHASE_BOUNDARY,
    RECONFIGURATION,
    SCHEMA_VERSION,
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
from repro.obs.recorder import JsonlSink, TraceRecorder, read_trace
from repro.obs.records import RecordFileError

__all__ = [
    "CONTROLLER_INTERVAL",
    "EVENT_TYPES",
    "FREQUENCY_CHANGE",
    "JsonlSink",
    "LEDGER_SCHEMA_VERSION",
    "LedgerSchemaError",
    "LedgerSummary",
    "LedgerWriter",
    "PHASE_BOUNDARY",
    "RECONFIGURATION",
    "RecordFileError",
    "SCHEMA_VERSION",
    "TraceEvent",
    "TraceRecorder",
    "TraceSchemaError",
    "open_ledger",
    "read_ledger",
    "read_trace",
    "summarize_ledgers",
]
