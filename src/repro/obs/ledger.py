"""The persistent run ledger: append-only JSONL accounting of engine work.

Every :class:`~repro.engine.engine.ExperimentEngine` batch can be appended
to a **ledger file**, in the schema-versioned JSONL container that trace
files also use (:mod:`repro.obs.records`).  Where a trace records what one
*simulation* did, the ledger records what a *campaign* did: which job
fingerprints ran where, how long each took, what the cache served, and the
engine's cumulative :class:`~repro.obs.metrics.EngineMetrics` snapshot
after each batch.  Ledgers are durable — an operator can query a campaign
long after its process has exited — and each command writes its own file
into a shared ``--ledger DIR``, which
``python -m repro.obs ledger summarize DIR`` and ``report DIR`` read
directly.

Ledgers are *observability-only*: nothing in them flows back into a
simulation, a fingerprint or a digest.  They are also the one sanctioned
home of host wall-clock timestamps (behind reasoned ``det-wallclock``
allows): an operator reading a ledger wants to know *when* a batch ran,
and nothing simulation-visible can read it back.

File layout (``*.ledger.jsonl``)::

    {"kind": "repro-obs-ledger", "meta": {...}, "schema": 1}   <- header
    {"record": "batch", ...}                                   <- one per batch

:func:`read_ledger` rejects foreign, stale, torn and unknown-record files
with :class:`LedgerSchemaError` instead of misparsing them.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Mapping, Sequence

from repro.obs.metrics import EngineMetrics
from repro.obs.records import RecordFileError, read_records, record_header

__all__ = [
    "LEDGER_SCHEMA_VERSION",
    "LEDGER_SUFFIX",
    "LedgerSchemaError",
    "LedgerSummary",
    "LedgerWriter",
    "ledger_files",
    "open_ledger",
    "read_ledger",
    "summarize_ledgers",
]

#: Version of the ledger header and record layout.  Bump when a record type
#: changes shape; readers refuse other versions.
LEDGER_SCHEMA_VERSION = 1

#: Marker stored in the header line so arbitrary JSONL files (including
#: trace files, which share the container format) are never misread.
_LEDGER_KIND = "repro-obs-ledger"

#: Canonical file suffix; :func:`ledger_files` discovers by it.
LEDGER_SUFFIX = ".ledger.jsonl"

#: The one record type this build writes and reads.
_RECORD_TYPE = "batch"


class LedgerSchemaError(RecordFileError):
    """A ledger file is foreign, truncated, or from another schema version."""


def _checked_record(record: Mapping[str, Any]) -> dict[str, Any]:
    """*record* as a plain dict, refusing any record type but ``batch``."""
    kind = record.get("record")
    if kind != _RECORD_TYPE:
        raise ValueError(f"unknown ledger record type {kind!r}; expected {_RECORD_TYPE!r}")
    return dict(record)


class LedgerWriter:
    """Append engine accounting records to one ledger file.

    The file is opened in append mode and is genuinely append-only: a
    re-run command pointed at its existing ledger validates the header
    and continues after the previous records (the campaign's full history
    stays in one place).  Every record is written as one line and flushed
    immediately, so a killed run loses at most the line it was writing
    — and :func:`read_ledger` rejects that torn tail loudly.
    """

    def __init__(self, path: str | Path, *, meta: Mapping[str, Any] | None = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.meta = dict(meta) if meta else {}
        existing = self.path.exists() and self.path.stat().st_size > 0
        if existing:
            # Appending to a foreign or stale file must fail before the
            # first record corrupts it.
            header_meta, _ = read_ledger(self.path)
            self.meta = header_meta
        self._handle: IO[str] = self.path.open("a", encoding="utf-8")
        if not existing:
            header = record_header(_LEDGER_KIND, LEDGER_SCHEMA_VERSION, self.meta)
            self._handle.write(json.dumps(header, sort_keys=True) + "\n")
            self._handle.flush()

    def append(self, record: Mapping[str, Any]) -> None:
        """Write one record line (caller supplies ``record`` type key)."""
        self._handle.write(json.dumps(_checked_record(record), sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "LedgerWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def wallclock_timestamp() -> float:
    """Host wall-clock for ledger record timestamps (observability-only).

    The one sanctioned wall-clock source of the ledger layer: timestamps
    let an operator line a ledger up against run logs.  Nothing
    simulation-visible reads them — summaries ignore timestamp fields.
    """
    # repro: allow(det-wallclock) — ledger record timestamps: operator-facing provenance only; excluded from fingerprints, digests and ledger summaries
    return time.time()


def open_ledger(
    directory: str | Path,
    *,
    label: str,
    meta: Mapping[str, Any] | None = None,
) -> LedgerWriter:
    """Open (or continue) the ledger file ``<label>.ledger.jsonl`` in *directory*.

    *meta* (plus the label and the writer's ``FINGERPRINT_VERSION``) lands
    in the header.
    """
    directory = Path(directory)
    safe_label = "".join(ch if (ch.isalnum() or ch in "-_.") else "-" for ch in label)
    # Imported here: repro.engine.job imports repro.obs at package level, so
    # a module-level import would create a cycle.
    from repro.engine.job import FINGERPRINT_VERSION

    header_meta: dict[str, Any] = dict(meta) if meta else {}
    header_meta.setdefault("label", label)
    header_meta.setdefault("fingerprint_version", FINGERPRINT_VERSION)
    header_meta.setdefault("created", time.strftime("%Y-%m-%dT%H:%M:%S%z"))
    return LedgerWriter(directory / f"{safe_label}{LEDGER_SUFFIX}", meta=header_meta)


def read_ledger(path: str | Path) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Parse a ledger file into ``(header_meta, records)``.

    Raises :class:`LedgerSchemaError` when the file is not a ledger, was
    written under a different :data:`LEDGER_SCHEMA_VERSION`, or holds a
    torn or malformed line or a record type other than ``batch`` — a torn
    tail line (killed writer) must surface rather than silently shortening
    the campaign's history.
    """
    return read_records(
        path,
        kind=_LEDGER_KIND,
        schema=LEDGER_SCHEMA_VERSION,
        parse=_checked_record,
        error=LedgerSchemaError,
    )


def ledger_files(source: str | Path) -> list[Path]:
    """The ledger files denoted by *source* (a file or a directory).

    A directory expands to its ``*.ledger.jsonl`` children, sorted by name
    so every caller sees the same deterministic order.
    """
    source = Path(source)
    if source.is_dir():
        found = sorted(source.glob(f"*{LEDGER_SUFFIX}"))
        if not found:
            raise FileNotFoundError(f"no *{LEDGER_SUFFIX} files in {source}")
        return found
    if not source.exists():
        raise FileNotFoundError(f"ledger source {source} does not exist")
    return [source]


# ------------------------------------------------------------- aggregation


@dataclass(slots=True)
class LedgerSummary:
    """The campaign view fused from one or more ledgers.

    The job/fingerprint accounting is deterministic; the timing fields
    (metrics, seconds, timestamps) are host-dependent by nature.
    """

    ledgers: int = 0
    records: int = 0
    jobs_submitted: int = 0
    cache_hits: int = 0
    batch_duplicates: int = 0
    simulated_fingerprints: set[str] = field(default_factory=set)
    served_fingerprints: set[str] = field(default_factory=set)
    executor_modes: set[str] = field(default_factory=set)
    metrics: EngineMetrics = field(default_factory=EngineMetrics)

    @property
    def simulations(self) -> int:
        """Distinct fingerprints simulated across every ledger."""
        return len(self.simulated_fingerprints)

    @property
    def unique_fingerprints(self) -> set[str]:
        """Every fingerprint the campaign touched (simulated or served)."""
        return self.simulated_fingerprints | self.served_fingerprints

    def fingerprint_digest(self) -> str:
        """sha256 over the sorted unique fingerprints — the campaign identity.

        Two ledger sets summarize to the same digest exactly when they cover
        the same jobs, however the work was split across runs.
        """
        payload = "\n".join(sorted(self.unique_fingerprints)).encode("ascii")
        return hashlib.sha256(payload).hexdigest()

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form for ``--json`` output."""
        return {
            "ledgers": self.ledgers,
            "records": self.records,
            "jobs_submitted": self.jobs_submitted,
            "cache_hits": self.cache_hits,
            "batch_duplicates": self.batch_duplicates,
            "simulations": self.simulations,
            "unique_jobs": len(self.unique_fingerprints),
            "fingerprint_digest": self.fingerprint_digest(),
            "executor_modes": sorted(self.executor_modes),
            "metrics": self.metrics.to_dict(),
        }


def summarize_ledgers(sources: Sequence[str | Path]) -> LedgerSummary:
    """Fuse *sources* (ledger files or directories of them).

    Validates every file via :func:`read_ledger`.  Metrics snapshots are
    reloaded through :meth:`EngineMetrics.from_dict` and fused bucket-wise with
    :meth:`EngineMetrics.merge`.  Because each record carries the writer's
    *cumulative* metrics snapshot, only the final snapshot per engine
    session of each file is merged (per-batch deltas would double-count).
    """
    paths: list[Path] = []
    for source in sources:
        paths += [path for path in ledger_files(source) if path not in paths]
    summary = LedgerSummary()
    for path in paths:
        _, records = read_ledger(path)
        summary.ledgers += 1
        final_metrics: dict[str, Mapping[str, Any]] = {}
        for record in records:
            summary.records += 1
            simulated = [str(fp) for fp in record.get("simulated", [])]
            served = [str(fp) for fp in record.get("cached", [])]
            summary.simulated_fingerprints.update(simulated)
            summary.served_fingerprints.update(served)
            summary.jobs_submitted += int(record.get("jobs", 0))
            summary.cache_hits += len(served)
            summary.batch_duplicates += int(record.get("duplicates", 0))
            executor = record.get("executor")
            if executor:
                summary.executor_modes.add(str(executor))
            metrics_snapshot = record.get("metrics")
            if isinstance(metrics_snapshot, Mapping):
                # Snapshots are cumulative per engine session, so the last
                # one per session wins; the session token distinguishes a
                # re-run appending to its own ledger (each process starts
                # fresh metrics).
                final_metrics[str(record.get("engine_session", ""))] = metrics_snapshot
        for snapshot in final_metrics.values():
            try:
                summary.metrics.merge(EngineMetrics.from_dict(snapshot))
            except (ValueError, KeyError, TypeError) as error:
                raise LedgerSchemaError(f"{path}: invalid metrics snapshot ({error})") from error
    return summary
