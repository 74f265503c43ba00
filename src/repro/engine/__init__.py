"""Parallel experiment engine: jobs, executors and the result cache.

The engine decouples *what* to simulate (:class:`SimulationJob`) from *how*
(:class:`SerialExecutor` / :class:`ParallelExecutor`) and *whether it already
ran* (:class:`ResultCache`).  The sweep layer submits jobs through an
:class:`ExperimentEngine` instead of constructing processors inline, which
makes every experiment driver batchable, parallelisable and memoised.

A process-wide default engine backs the convenience ``engine=None`` paths in
:mod:`repro.analysis.sweep`.  It is serial with an in-memory cache unless
configured via environment variables:

``REPRO_ENGINE_WORKERS``
    Worker-process count for the default engine (``0``/``1`` = serial,
    ``auto`` = one per available core).
``REPRO_ENGINE_CACHE_DIR``
    Directory for a persistent on-disk result cache.
``REPRO_ENGINE_CACHE``
    Set to ``0`` to disable result caching entirely.
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
from repro.obs.metrics import EngineMetrics
from repro.obs.options import TraceOptions

__all__ = [
    "CacheStats",
    "CacheVersionError",
    "DEFAULT_TRACE_SEED",
    "EngineMetrics",
    "EngineStats",
    "Executor",
    "ExperimentEngine",
    "FINGERPRINT_VERSION",
    "ParallelExecutor",
    "ResultCache",
    "SerialExecutor",
    "SimulationJob",
    "SpecKind",
    "TraceOptions",
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
    """The worker count *workers* names: an int (or its decimal string),
    ``"auto"`` (one worker per available core) or ``None`` (serial).

    Raises :class:`ValueError` for anything else.
    """
    if workers is None:
        return 1
    if workers == "auto":
        return default_worker_count()
    try:
        return int(workers)
    except ValueError:
        raise ValueError(f"workers must be an integer or 'auto', got {workers!r}") from None


def make_engine(
    *,
    workers: int | str | None = None,
    cache_dir: str | os.PathLike | None = None,
    use_cache: bool = True,
) -> ExperimentEngine:
    """Build an engine from simple knobs (the CLI/benchmark entry point).

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
        _default_engine = make_engine(
            workers=os.environ.get("REPRO_ENGINE_WORKERS") or None,
            cache_dir=os.environ.get("REPRO_ENGINE_CACHE_DIR") or None,
            use_cache=os.environ.get("REPRO_ENGINE_CACHE", "1") != "0",
        )
    return _default_engine
