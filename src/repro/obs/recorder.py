"""The :class:`TraceRecorder`: event stream, sinks and sampling.

The recorder is the single object the instrumentation hooks talk to.  A
``None`` recorder *is* the null object — every hook in
:class:`~repro.core.processor.MCDProcessor` guards its emission with one
``is not None`` test (hoisted to a precomputed boolean on the hot paths), so
the disabled path does no event work at all and the golden digests are
bit-identical with tracing on and off.

Sinks receive every surviving event:

:class:`RingBufferSink`
    A bounded in-memory ring (``collections.deque(maxlen=...)``) for
    programmatic inspection; old events fall off the front.
:class:`JsonlSink`
    One JSON object per line, first line a schema-versioned header (the
    :mod:`repro.obs.records` container).  :func:`read_trace` round-trips
    the file and rejects other schemas.

Sampling is deterministic and per event type: ``sampling={"sync-penalty":
100}`` keeps the 1st, 101st, 201st... sync-penalty event, counted in
emission order, so two runs of the same job produce the identical sampled
stream — no clocks, no RNG.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Any, Iterable, Mapping, Protocol, Sequence

from repro.obs.events import EVENT_TYPES, SCHEMA_VERSION, TraceEvent, TraceSchemaError
from repro.obs.records import read_records, record_header

__all__ = [
    "JsonlSink",
    "RingBufferSink",
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


class RingBufferSink:
    """Keep the most recent *capacity* events in memory."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("ring capacity must be positive")
        self.capacity = capacity
        self._ring: deque[TraceEvent] = deque(maxlen=capacity)

    def write(self, event: TraceEvent) -> None:
        self._ring.append(event)

    def close(self) -> None:
        """Nothing to release; the ring stays readable after close."""

    @property
    def events(self) -> list[TraceEvent]:
        """The buffered events, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)


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
    """Fan trace events out to sinks, with type filtering and sampling.

    Parameters
    ----------
    sinks:
        The sinks receiving surviving events.
    event_types:
        Event types to record (``None`` = all).  Filtering happens before
        sampling and before any :class:`TraceEvent` is constructed, so an
        unwanted type costs one set lookup.
    sampling:
        Per-type decimation: ``{type: n}`` keeps every *n*-th event of that
        type (the 1st, ``n+1``-th, ...), counted deterministically in
        emission order.  Types absent from the mapping are kept in full.
    """

    def __init__(
        self,
        sinks: Sequence[TraceSink] = (),
        *,
        event_types: Iterable[str] | None = None,
        sampling: Mapping[str, int] | None = None,
    ) -> None:
        self._sinks = list(sinks)
        if event_types is None:
            self._wanted = EVENT_TYPES
        else:
            wanted = frozenset(event_types)
            unknown = wanted - EVENT_TYPES
            if unknown:
                raise ValueError(f"unknown trace event types: {sorted(unknown)}")
            self._wanted = wanted
        self._sampling: dict[str, int] = {}
        for event_type, stride in (sampling or {}).items():
            if event_type not in EVENT_TYPES:
                raise ValueError(f"unknown trace event type in sampling: {event_type!r}")
            if int(stride) < 1:
                raise ValueError("sampling strides must be >= 1")
            self._sampling[event_type] = int(stride)
        #: Events offered per type (post type-filter, pre-sampling).
        self.seen: dict[str, int] = {}
        #: Events actually delivered to the sinks, per type.
        self.emitted: dict[str, int] = {}

    def wants(self, event_type: str) -> bool:
        """True when *event_type* passes the type filter.

        The processor hoists ``recorder is not None and recorder.wants(t)``
        into per-type booleans at construction, so hot-loop emission guards
        are a single local truth test.
        """
        return event_type in self._wanted

    def emit(self, event_type: str, time_ps: int, committed: int, **data: Any) -> None:
        """Record one event (subject to the type filter and sampling)."""
        if event_type not in self._wanted:
            return
        seen = self.seen.get(event_type, 0)
        self.seen[event_type] = seen + 1
        stride = self._sampling.get(event_type, 1)
        if stride > 1 and seen % stride:
            return
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
