"""Deterministic result cache keyed by job fingerprint.

The cache has two tiers: a process-local in-memory map (always consulted
first) and an optional on-disk directory of JSON files, one per fingerprint,
so repeated sweeps — including across interpreter sessions and experiment
drivers — never re-simulate an identical configuration.  Simulations are
deterministic functions of the job fingerprint, which is what makes caching
sound.

Disk entries are *versioned*: every file records the
:data:`~repro.engine.job.FINGERPRINT_VERSION` it was written under, and the
load path refuses entries from a different version with an error naming
both versions — a stale cache directory must fail loudly rather than
silently miss (or, worse, collide with) current fingerprints.  Entries are
also *canonical* (:meth:`ResultCache.put`), so a store's bytes depend only
on which jobs it holds, not on how the work was split across invocations.

Stored results are returned as deep copies: :class:`RunResult` is mutable,
and callers must never be able to corrupt the cache (or each other) through
a shared instance.
"""

from __future__ import annotations

import copy
import json
import os
import tempfile
import time
from dataclasses import dataclass, fields
from pathlib import Path

from repro.analysis.metrics import RunResult
from repro.engine.job import FINGERPRINT_VERSION


class CacheVersionError(ValueError):
    """A cache entry was written under a different ``FINGERPRINT_VERSION``.

    Raised instead of silently mixing stores: entries from different
    fingerprint versions describe different simulator semantics, so serving
    them to a newer engine would let a stale result masquerade as a current
    one.
    """


@dataclass(slots=True)
class CacheStats:
    """Hit/miss accounting for one :class:`ResultCache`."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def hits(self) -> int:
        """Total lookups served without simulation."""
        return self.memory_hits + self.disk_hits

    def describe(self) -> str:
        """One summary line for CLI output."""
        return (
            f"cache: {self.hits} hit(s) ({self.memory_hits} memory, "
            f"{self.disk_hits} disk), {self.misses} miss(es), "
            f"{self.stores} store(s)"
        )


class ResultCache:
    """Two-tier (memory + optional disk) store of :class:`RunResult` objects."""

    #: Temp files older than this (seconds) are presumed orphaned by a killed
    #: writer and reaped when the cache is constructed.  The age guard keeps a
    #: fresh cache instance from deleting a live concurrent writer's file.
    STALE_TEMP_AGE_SECONDS = 3600.0

    def __init__(self, directory: str | os.PathLike | None = None) -> None:
        self._memory: dict[str, RunResult] = {}
        self._directory = Path(directory) if directory is not None else None
        if self._directory is not None:
            self._directory.mkdir(parents=True, exist_ok=True)
            self._sweep_stale_temp_files(self.STALE_TEMP_AGE_SECONDS)
        self.stats = CacheStats()

    @property
    def directory(self) -> Path | None:
        """On-disk location, or ``None`` for a memory-only cache."""
        return self._directory

    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, fingerprint: str) -> bool:
        """True only for entries :meth:`get` would actually serve.

        Membership *validates* disk entries (parse + schema round-trip): a
        truncated or corrupt file must not answer ``in`` with True while
        ``get`` returns a miss.  A validated entry is promoted to the memory
        tier, so the subsequent ``get`` is a memory hit; the hit/miss stats
        count only :meth:`get` lookups.
        """
        if fingerprint in self._memory:
            return True
        return self._load_disk(fingerprint) is not None

    def disk_fingerprints(self) -> list[str]:
        """Sorted fingerprints of every committed disk entry (unvalidated)."""
        if self._directory is None:
            return []
        return sorted(path.stem for path in self._directory.glob("*.json"))

    def _path(self, fingerprint: str) -> Path | None:
        if self._directory is None:
            return None
        return self._directory / f"{fingerprint}.json"

    @staticmethod
    def _check_version(data: dict, source: Path) -> None:
        """Raise :class:`CacheVersionError` unless *data* matches this build.

        Entries written before cache payloads carried a version field (or by
        a build with a different ``FINGERPRINT_VERSION``) are rejected: the
        stored result may encode different simulator semantics than the
        fingerprint the current code would compute.
        """
        stored = data.get("version")
        if stored == FINGERPRINT_VERSION:
            return
        described = (
            "no recorded version (a pre-versioning store)"
            if stored is None
            else f"FINGERPRINT_VERSION {stored!r}"
        )
        raise CacheVersionError(
            f"cache entry {source} was written under {described}, but this "
            f"build is FINGERPRINT_VERSION {FINGERPRINT_VERSION}; refusing "
            f"to mix stores — regenerate the entry or delete the stale "
            f"cache directory"
        )

    def _load_disk(self, fingerprint: str) -> RunResult | None:
        """Parse the disk entry into the memory tier; ``None`` if invalid.

        A syntactically broken file (truncated write, not JSON, missing
        keys) is a miss — it simply re-simulates.  So is an entry whose
        recorded fingerprint is not its file name's: it holds another job's
        result.  A *well-formed* entry recorded under a different
        ``FINGERPRINT_VERSION`` raises :class:`CacheVersionError` instead:
        that is a configuration error (pointing the engine at a stale
        store), not a transient artefact.
        """
        path = self._path(fingerprint)
        if path is None or not path.exists():
            return None
        try:
            data = json.loads(path.read_text())
        except ValueError:
            # A truncated or garbled cache file is a miss, not an error.
            return None
        if not isinstance(data, dict) or "result" not in data:
            return None
        self._check_version(data, path)
        if data.get("fingerprint") != fingerprint:
            return None
        try:
            result = RunResult.from_dict(data["result"])
        except (ValueError, KeyError, TypeError):
            return None
        self._memory[fingerprint] = result
        return result

    def get(self, fingerprint: str) -> RunResult | None:
        """Return a copy of the cached result for *fingerprint*, if any."""
        result = self._memory.get(fingerprint)
        if result is not None:
            self.stats.memory_hits += 1
            return copy.deepcopy(result)
        result = self._load_disk(fingerprint)
        if result is not None:
            self.stats.disk_hits += 1
            return copy.deepcopy(result)
        return self._miss()

    def _miss(self) -> None:
        self.stats.misses += 1
        return None

    @staticmethod
    def _canonical(result: RunResult) -> RunResult:
        """A deep copy with per-process observability fields reset.

        Fields in :attr:`RunResult.PROCESS_DEPENDENT_FIELDS` reflect how
        warm *this* process happened to be, not what the job computed;
        resetting them makes cached (and persisted) results canonical, so
        two stores covering the same fingerprints are byte-identical no
        matter how the work was split across runs.
        """
        stored = copy.deepcopy(result)
        defaults = {spec.name: spec.default for spec in fields(RunResult)}
        for name in RunResult.PROCESS_DEPENDENT_FIELDS:
            setattr(stored, name, defaults[name])
        return stored

    def put(self, fingerprint: str, result: RunResult) -> None:
        """Store *result* under *fingerprint* (memory, then disk if enabled).

        The stored copy is canonicalised (:meth:`_canonical`): per-process
        observability counters are reset so identical fingerprints always
        persist identical bytes.
        """
        stored = self._canonical(result)
        self._memory[fingerprint] = stored
        self.stats.stores += 1
        path = self._path(fingerprint)
        if path is None:
            return
        payload = {
            "fingerprint": fingerprint,
            "version": FINGERPRINT_VERSION,
            "result": stored.to_dict(),
        }
        # Write-then-rename keeps concurrent readers from seeing partial files.
        handle = tempfile.NamedTemporaryFile(
            "w", dir=self._directory, prefix=".tmp-", suffix=".json", delete=False
        )
        try:
            with handle:
                handle.write(json.dumps(payload))
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except FileNotFoundError:
                # A concurrent clear() in another cache instance may have
                # reaped the temp file already; don't mask the original error.
                pass
            raise

    def _sweep_stale_temp_files(self, max_age_seconds: float | None = None) -> int:
        """Remove orphaned ``.tmp-*`` files left by writers killed mid-`put`.

        With *max_age_seconds* only files at least that old are reaped;
        ``None`` reaps them all.  Returns the number of files removed.
        """
        if self._directory is None:
            return 0
        # repro: allow(det-wallclock) — temp-reaper age guard: compares host-file mtimes against the host clock; nothing simulation-visible flows from it
        cutoff = None if max_age_seconds is None else time.time() - max_age_seconds
        removed = 0
        for path in sorted(self._directory.glob(".tmp-*")):
            try:
                if cutoff is not None and path.stat().st_mtime > cutoff:
                    continue
                path.unlink()
            except OSError:
                continue  # another process won the race; nothing to reap
            removed += 1
        return removed

    def clear(self) -> None:
        """Drop the in-memory tier and reap any orphaned temp files.

        Committed disk entries (``<fingerprint>.json``) are left in place.
        The temp reap here is unconditional (no age guard): call ``clear``
        between runs, not while another process is writing into the same
        directory — a concurrent ``put`` whose temp file is reaped fails
        with the interrupted write's error rather than corrupting anything.
        """
        self._memory.clear()
        self._sweep_stale_temp_files()
