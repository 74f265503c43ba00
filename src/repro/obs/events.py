"""Typed, schema-versioned trace events emitted by the simulator hooks.

One :class:`TraceEvent` is one observation that explains a controller
decision: a controller interval was evaluated, a reconfiguration was
applied, a domain clock changed frequency, or a scenario phase boundary
passed.  Per-edge activity (synchronisation penalties, edges the
work-horizon skip consumed) is counted in the
:class:`~repro.analysis.metrics.RunResult`, not traced.  Events are
observation-only by construction — nothing in the simulator reads them back
— so a traced run and an untraced run of the same job produce bit-identical
:class:`~repro.analysis.metrics.RunResult` digests.

Every event carries the simulated time (integer picoseconds), the committed
instruction count of the measured window at emission, and a plain-data
payload specific to its type.  ``SCHEMA_VERSION`` versions the trace file
(:mod:`repro.obs.recorder`, in the :mod:`repro.obs.records` container):
readers reject files written under a different schema instead of
misparsing them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.obs.records import RecordFileError

__all__ = [
    "CONTROLLER_INTERVAL",
    "EVENT_TYPES",
    "FREQUENCY_CHANGE",
    "PHASE_BOUNDARY",
    "RECONFIGURATION",
    "SCHEMA_VERSION",
    "TraceEvent",
    "TraceSchemaError",
]

#: Version of the event payloads and the JSONL container format.  Bump when
#: an event type changes shape; readers refuse other versions.  v2: the
#: fast-forward event type is gone and horizon-skip covers all four domains.
#: v3: every controller-interval event has one shape, in configuration
#: indices.  v4: the per-edge sync-penalty and horizon-skip events are gone.
SCHEMA_VERSION = 4

#: A phase-adaptive controller finished an adaptation interval.  Payload:
#: ``structure``; ``configurations``, what each index names (the
#: configuration names of a cache, the sizes of an issue queue, smallest
#: first); the decision as ``previous_index``, ``best_index``,
#: ``raw_best_index`` (the winner before damping), ``values`` (a cache's
#: cost in ps, lower wins; a queue's frequency-scaled ILP score, higher
#: wins), ``margin``, ``suppressed_by`` ("hysteresis", "streak" or ""),
#: ``pending_candidate``, ``pending_count`` and ``changed``.  Caches add
#: ``interval_instructions`` and ``interval_duration_ps``; queues add
#: ``ilp_estimates``, one per configuration.
CONTROLLER_INTERVAL = "controller-interval"

#: A controller-commanded reconfiguration was scheduled (PLL re-lock pending).
RECONFIGURATION = "reconfiguration"

#: A domain clock's frequency actually changed (the re-lock completed).
FREQUENCY_CHANGE = "frequency-change"

#: A scenario phase-program boundary fell inside the measured window
#: (synthesised from the :class:`~repro.scenarios.spec.ScenarioSpec` by the
#: trace driver, not emitted by the processor).
PHASE_BOUNDARY = "phase-boundary"

EVENT_TYPES = frozenset(
    {
        CONTROLLER_INTERVAL,
        RECONFIGURATION,
        FREQUENCY_CHANGE,
        PHASE_BOUNDARY,
    }
)


class TraceSchemaError(RecordFileError):
    """A trace file is foreign, torn, or from another schema version."""


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One timestamped observation from a simulation run.

    ``time_ps`` is simulated time (integer picoseconds; 0 for synthesised
    events such as phase boundaries), ``committed`` the measured-window
    instruction count when the event was emitted, and ``data`` the
    type-specific plain-data payload (JSON-stable: strings, numbers, bools,
    lists and string-keyed dicts only).
    """

    type: str
    time_ps: int
    committed: int
    data: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.type not in EVENT_TYPES:
            raise ValueError(
                f"unknown trace event type {self.type!r}; "
                f"expected one of {sorted(EVENT_TYPES)}"
            )

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form, losslessly JSON-serialisable."""
        return {
            "type": self.type,
            "time_ps": self.time_ps,
            "committed": self.committed,
            "data": dict(self.data),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TraceEvent":
        """Rebuild an event from :meth:`to_dict` output."""
        return cls(
            type=payload["type"],
            time_ps=int(payload["time_ps"]),
            committed=int(payload["committed"]),
            data=dict(payload.get("data", {})),
        )
