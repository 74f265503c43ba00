"""The :class:`TraceRecorder`: the event stream and its sinks.

The recorder is the single object the instrumentation hooks talk to.  A
``None`` recorder *is* the null object — every hook in
:class:`~repro.core.processor.MCDProcessor` guards its emission with one
``is not None`` test, none of them on a per-edge path, so the disabled path
does no event work at all and the golden digests are bit-identical with
tracing on and off.

Sinks receive every event.  :class:`JsonlSink` writes one JSON object per
line, the first line a schema-versioned header (the
:mod:`repro.obs.records` container); :func:`read_trace` round-trips the file
and rejects other schemas.  Any object with ``write(event)`` and ``close()``
is a sink.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping, Protocol, Sequence

from repro.obs.events import SCHEMA_VERSION, TraceEvent, TraceSchemaError
from repro.obs.records import read_records, record_header

__all__ = [
    "JsonlSink",
    "TraceRecorder",
    "read_trace",
]

#: Marker stored in the JSONL header line so arbitrary JSON files are not
#: misread as traces.
_TRACE_KIND = "repro-obs-trace"


class TraceSink(Protocol):
    """Anything that can receive trace events (duck-typed)."""

    def write(self, event: TraceEvent) -> None:  # pragma: no cover - protocol
        ...

    def close(self) -> None:  # pragma: no cover - protocol
        ...


class JsonlSink:
    """Append events to a JSONL file, one object per line.

    The first line is a header recording the schema version and caller
    metadata (job label, fingerprint...); :func:`read_trace` validates it
    before parsing any event.  Trace files are diagnostic artefacts, not
    result-cache content — they carry no fingerprint version and must never
    be placed in a result store (see ``docs/OPERATIONS.md``).
    """

    def __init__(self, path: str | Path, *, meta: Mapping[str, Any] | None = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("w", encoding="utf-8")
        header = record_header(_TRACE_KIND, SCHEMA_VERSION, meta)
        self._handle.write(json.dumps(header, sort_keys=True) + "\n")

    def write(self, event: TraceEvent) -> None:
        self._handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


class TraceRecorder:
    """Fan trace events out to *sinks*, counting them per type."""

    def __init__(self, sinks: Sequence[TraceSink] = ()) -> None:
        self._sinks = list(sinks)
        #: Events delivered to the sinks, per type.
        self.emitted: dict[str, int] = {}

    def emit(self, event_type: str, time_ps: int, committed: int, **data: Any) -> None:
        """Record one event; an unknown *event_type* raises ``ValueError``."""
        event = TraceEvent(type=event_type, time_ps=time_ps, committed=committed, data=data)
        self.emitted[event_type] = self.emitted.get(event_type, 0) + 1
        for sink in self._sinks:
            sink.write(event)

    def close(self) -> None:
        """Close every sink (flushes JSONL files)."""
        for sink in self._sinks:
            sink.close()

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_trace(path: str | Path) -> tuple[dict[str, Any], list[TraceEvent]]:
    """Parse a JSONL trace file into ``(header_meta, events)``.

    Raises :class:`TraceSchemaError` when the file is not a trace, was
    written under a different :data:`~repro.obs.events.SCHEMA_VERSION`, or
    holds a torn or malformed event (see :func:`repro.obs.records.read_records`).
    """
    return read_records(
        path,
        kind=_TRACE_KIND,
        schema=SCHEMA_VERSION,
        parse=TraceEvent.from_dict,
        error=TraceSchemaError,
    )
