"""Stable digests of a :class:`~repro.analysis.metrics.RunResult`.

Every optimisation PR is gated on these digests staying bit-identical, so
their field partition is a *contract*, not a convention:

* :data:`TIMING_DIGEST_FIELDS` — the pre-energy schema.  ``result_digest``
  hashes exactly this serialisation, so adding observation-only activity
  fields can never move a pinned timing digest — only a change to simulated
  behaviour can.
* :data:`FAST_PATH_OBSERVABILITY_FIELDS` — the ``compare=False`` fields of
  ``RunResult``: counters describing how a run was *simulated* (the
  work-horizon skip), not what the machine did.  Excluded from
  both digests and from result equality.
* Everything else — activity counters and structural sizes hashed by
  ``energy_digest`` together with the derived energy report.

``tests/fingerprint_schema.json`` records each field's class, so moving a
field between classes fails ``tests/test_fingerprint_schema.py`` until
``FINGERPRINT_VERSION`` is bumped; ``tests/golden_digests.py`` re-exports
these names and pins the recorded golden values.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields

from repro.analysis.metrics import RunResult

__all__ = [
    "FAST_PATH_OBSERVABILITY_FIELDS",
    "TIMING_DIGEST_FIELDS",
    "energy_digest",
    "result_digest",
]

#: The RunResult fields that existed before the energy-accounting subsystem.
#: Timing digests hash exactly this serialisation, so adding new
#: (observation-only) activity fields can never move a pinned timing digest —
#: only a change to simulated *behaviour* can.
TIMING_DIGEST_FIELDS = (
    "workload",
    "machine",
    "style",
    "committed_instructions",
    "execution_time_ps",
    "domain_cycles",
    "final_frequencies_ghz",
    "branch_predictions",
    "branch_mispredictions",
    "icache_accesses",
    "icache_b_hits",
    "icache_misses",
    "loads",
    "stores",
    "l1d_hits_a",
    "l1d_hits_b",
    "l1d_misses",
    "l2_hits_a",
    "l2_hits_b",
    "l2_misses",
    "memory_accesses",
    "loads_forwarded",
    "sync_transfers",
    "sync_penalties",
    "fetch_stall_cycles",
    "branch_stall_cycles",
    "int_queue_average_occupancy",
    "fp_queue_average_occupancy",
    "configuration_changes",
)

#: Observation-only counters describing how a run was *simulated* (the
#: work-horizon skip), not what the machine did: the
#: fields ``RunResult`` declares with ``compare=False``.  They vary with the
#: fast-path knobs while the simulated behaviour is bit-identical, so they
#: are excluded from the energy digest exactly as the timing fields are (and
#: were never part of the timing digest).
FAST_PATH_OBSERVABILITY_FIELDS = frozenset(
    spec.name for spec in fields(RunResult) if not spec.compare
)


def result_digest(result: RunResult) -> str:
    """Stable sha256 of a RunResult's timing content.

    Hashes the serialisation of :data:`TIMING_DIGEST_FIELDS` — byte-identical
    to the full ``to_dict`` serialisation of the pre-energy schema, so every
    digest recorded before the energy subsystem remains directly comparable.
    """
    data = result.to_dict()
    payload = json.dumps(
        {name: data[name] for name in TIMING_DIGEST_FIELDS},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def energy_digest(result: RunResult) -> str:
    """Stable sha256 of a run's activity counters and energy breakdown.

    Covers the activity/structure fields of the ``RunResult`` *and* the
    derived :class:`~repro.energy.EnergyReport`, so both the counters and
    the energy model's arithmetic are pinned.
    """
    # Imported here: repro.energy itself imports repro.analysis, so a
    # module-level import would tie the two package imports into a cycle.
    from repro.energy import energy_report

    data = result.to_dict()
    activity = {
        name: value
        for name, value in data.items()
        if name not in TIMING_DIGEST_FIELDS
        and name not in FAST_PATH_OBSERVABILITY_FIELDS
    }
    payload = json.dumps(
        {"activity": activity, "energy": energy_report(result).to_dict()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
