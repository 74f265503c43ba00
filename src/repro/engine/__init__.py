"""Parallel experiment engine: jobs, executors and the result cache.

The engine decouples *what* to simulate (:class:`SimulationJob`) from *how*
(:class:`SerialExecutor` / :class:`ParallelExecutor`) and *whether it already
ran* (:class:`ResultCache`).  The sweep layer submits jobs through an
:class:`ExperimentEngine` instead of constructing processors inline, which
makes every experiment driver batchable, parallelisable and memoised.

A process-wide default engine backs the convenience ``engine=None`` paths in
:mod:`repro.analysis.sweep` and :mod:`repro.scenarios`.  It is serial with an
in-memory cache: callers that want workers or a disk store pass
``engine=make_engine(...)``, and the sweep CLIs take ``--workers`` and
``--cache-dir``.
"""

from __future__ import annotations

import os

from repro.engine.cache import CacheStats, CacheVersionError, ResultCache
from repro.engine.engine import EngineStats, ExperimentEngine
from repro.engine.executors import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    default_worker_count,
)
from repro.engine.job import (
    DEFAULT_TRACE_SEED,
    FINGERPRINT_VERSION,
    SimulationJob,
    SpecKind,
    canonical_payload,
    default_control_params,
    default_warmup,
    make_trace,
)
from repro.engine.runner import run_job

__all__ = [
    "CacheStats",
    "CacheVersionError",
    "DEFAULT_TRACE_SEED",
    "EngineStats",
    "Executor",
    "ExperimentEngine",
    "FINGERPRINT_VERSION",
    "ParallelExecutor",
    "ResultCache",
    "SerialExecutor",
    "SimulationJob",
    "SpecKind",
    "canonical_payload",
    "default_control_params",
    "default_engine",
    "default_warmup",
    "default_worker_count",
    "make_engine",
    "make_trace",
    "parse_workers",
    "run_job",
]

_default_engine: ExperimentEngine | None = None


def parse_workers(workers: int | str | None) -> int:
    """The worker count *workers* names: a non-negative int (or its decimal
    string), ``"auto"`` (one worker per available core) or ``None`` (serial).

    Raises :class:`ValueError` for anything else.
    """
    if workers is None:
        return 1
    if workers == "auto":
        return default_worker_count()
    try:
        count = int(workers)
    except ValueError:
        raise ValueError(f"workers must be an integer or 'auto', got {workers!r}") from None
    if count < 0:
        raise ValueError(f"workers must not be negative, got {count}")
    return count


def make_engine(
    *,
    workers: int | str | None = None,
    cache_dir: str | os.PathLike | None = None,
    use_cache: bool = True,
) -> ExperimentEngine:
    """Build an engine from simple knobs (the CLI entry point).

    ``workers`` is read by :func:`parse_workers`; ``0``/``1`` run serially.
    """
    workers = parse_workers(workers)
    executor = ParallelExecutor(max_workers=workers) if workers > 1 else SerialExecutor()
    cache = ResultCache(cache_dir) if use_cache else None
    return ExperimentEngine(executor, cache)


def default_engine() -> ExperimentEngine:
    """The process-wide engine used when callers do not pass one."""
    global _default_engine
    if _default_engine is None:
        _default_engine = make_engine()
    return _default_engine
