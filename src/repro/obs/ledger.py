"""The persistent run ledger: append-only JSONL accounting of engine work.

An :class:`~repro.engine.engine.ExperimentEngine` with a ledger attached
appends to a **ledger file**, in the schema-versioned JSONL container that
trace files also use (:mod:`repro.obs.records`).  Where a trace records what
one *simulation* did, the ledger records what a *campaign* did and where its
time went:

- a ``batch`` record when a batch is submitted: a wall-clock timestamp, the
  executor, the submitted and duplicate job counts and the fingerprints the
  result cache served;
- a ``job`` record when a simulated job's result is stored: its fingerprint
  and ``describe()`` label, the seconds its runner took in the process that
  ran it, and its result's work counters (:data:`WORK_FIELDS`).

A killed campaign's ledger therefore holds a job record for every result its
store holds.  Each command writes its own file into a shared
``--ledger DIR``, which ``python -m repro.obs report DIR`` reads
directly.

Ledgers are *observability-only*: nothing in them flows back into a
simulation, a fingerprint or a digest.  They are also the one sanctioned
home of host wall-clock timestamps (behind reasoned ``det-wallclock``
allows): an operator reading a ledger wants to know *when* a batch ran,
and nothing simulation-visible can read it back.

File layout (``*.ledger.jsonl``)::

    {"kind": "repro-obs-ledger", "meta": {...}, "schema": 2}   <- header
    {"record": "batch", ...}                                   <- per submitted batch
    {"record": "job", ...}                                     <- per simulated job

:func:`read_ledger` rejects foreign, torn and unknown-record files, and
files of another schema (schema 1 records carried no work counters), with
:class:`LedgerSchemaError` instead of misparsing them.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Mapping, Sequence

from repro.obs.records import RecordFileError, read_records, record_header

if TYPE_CHECKING:
    from repro.analysis.metrics import RunResult

__all__ = [
    "LEDGER_SCHEMA_VERSION",
    "LEDGER_SUFFIX",
    "LedgerSchemaError",
    "LedgerSummary",
    "LedgerWriter",
    "WORK_FIELDS",
    "batch_record",
    "job_record",
    "ledger_files",
    "open_ledger",
    "read_ledger",
    "summarize_ledgers",
]

#: Version of the ledger header and record layout.  Bump when a record type
#: changes shape; readers refuse other versions.
LEDGER_SCHEMA_VERSION = 2

#: Marker stored in the header line so arbitrary JSONL files (including
#: trace files, which share the container format) are never misread.
_LEDGER_KIND = "repro-obs-ledger"

#: Canonical file suffix; :func:`ledger_files` discovers by it.
LEDGER_SUFFIX = ".ledger.jsonl"

#: The numeric fields of a ``job`` record, each summed by
#: :func:`summarize_ledgers`.  Processed edges are the clock edges the main
#: loop stepped one at a time: all domain cycles less the skipped ones.
WORK_FIELDS = (
    "seconds",
    "committed_instructions",
    "processed_edges",
    "skipped_edges",
    "configuration_changes",
)


class LedgerSchemaError(RecordFileError):
    """A ledger file is foreign, truncated, or from another schema version."""


#: The fields every ``job`` record carries, with their JSON types.
_JOB_FIELDS = {"fingerprint": str, "job": str, **dict.fromkeys(WORK_FIELDS, (int, float))}


def _checked_record(record: Mapping[str, Any]) -> dict[str, Any]:
    """*record* as a plain dict, refusing unknown types and malformed jobs."""
    kind = record.get("record")
    if kind == "job":
        for name, types in _JOB_FIELDS.items():
            if not isinstance(record[name], types):
                raise TypeError(f"job record field {name!r} is {record[name]!r}")
    elif kind != "batch":
        raise ValueError(f"unknown ledger record type {kind!r}; expected 'batch' or 'job'")
    return dict(record)


def batch_record(
    *, executor: str, workers: int, jobs: int, duplicates: int, cached: Sequence[str]
) -> dict[str, Any]:
    """The ``batch`` record of a submitted batch.

    Its ``t`` is the host wall-clock, the one sanctioned wall-clock source
    of the ledger layer: it lets an operator line a ledger up against run
    logs, and nothing simulation-visible reads it back.
    """
    return {
        "record": "batch",
        "t": round(time.time(), 3),
        "executor": executor,
        "workers": workers,
        "jobs": jobs,
        "duplicates": duplicates,
        "cached": sorted(cached),
    }


def job_record(fingerprint: str, label: str, seconds: float, result: RunResult) -> dict[str, Any]:
    """The ``job`` record of one simulated job, *seconds* being its runner's time."""
    skipped = result.horizon_skipped_edges
    return {
        "record": "job",
        "fingerprint": fingerprint,
        "job": label,
        "seconds": round(seconds, 6),
        "committed_instructions": result.committed_instructions,
        "processed_edges": sum(result.domain_cycles.values()) - skipped,
        "skipped_edges": skipped,
        "configuration_changes": len(result.configuration_changes),
    }


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
    torn or malformed line, a record type other than ``batch`` and ``job``
    or a job record without its work counters — a torn tail line (killed
    writer) must surface rather than silently shortening the campaign's
    history.
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

    The job/fingerprint accounting and every work counter but ``seconds``
    are deterministic; seconds and timestamps are host-dependent by nature.
    """

    ledgers: int = 0
    batches: int = 0
    jobs_submitted: int = 0
    cache_hits: int = 0
    batch_duplicates: int = 0
    served_fingerprints: set[str] = field(default_factory=set)
    executor_modes: set[str] = field(default_factory=set)
    #: Every ``job`` record, in file order.
    jobs: list[dict[str, Any]] = field(default_factory=list)

    @property
    def simulations(self) -> int:
        """Simulated jobs: one ``job`` record each."""
        return len(self.jobs)

    @property
    def unique_fingerprints(self) -> set[str]:
        """Every fingerprint the campaign touched (simulated or served)."""
        return {job["fingerprint"] for job in self.jobs} | self.served_fingerprints

    def work(self) -> dict[str, float]:
        """Each of :data:`WORK_FIELDS` summed over the job records."""
        return {name: sum(job[name] for job in self.jobs) for name in WORK_FIELDS}

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
            "batches": self.batches,
            "jobs_submitted": self.jobs_submitted,
            "cache_hits": self.cache_hits,
            "batch_duplicates": self.batch_duplicates,
            "simulations": self.simulations,
            "unique_jobs": len(self.unique_fingerprints),
            "fingerprint_digest": self.fingerprint_digest(),
            "executor_modes": sorted(self.executor_modes),
            "work": self.work(),
        }


def summarize_ledgers(sources: Sequence[str | Path]) -> LedgerSummary:
    """Fuse *sources* (ledger files or directories of them).

    Validates every file via :func:`read_ledger`.  Batch records add their
    job counts; job records are kept whole, so the summary sums their work
    however many processes appended to a file.
    """
    paths: list[Path] = []
    for source in sources:
        paths += [path for path in ledger_files(source) if path not in paths]
    summary = LedgerSummary()
    for path in paths:
        _, records = read_ledger(path)
        summary.ledgers += 1
        for record in records:
            if record["record"] == "job":
                summary.jobs.append(record)
                continue
            summary.batches += 1
            served = [str(fp) for fp in record.get("cached", [])]
            summary.served_fingerprints.update(served)
            summary.jobs_submitted += int(record.get("jobs", 0))
            summary.cache_hits += len(served)
            summary.batch_duplicates += int(record.get("duplicates", 0))
            executor = record.get("executor")
            if executor:
                summary.executor_modes.add(str(executor))
    return summary
