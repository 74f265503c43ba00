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

from repro.engine.cache import (
    CacheMergeError,
    CacheStats,
    CacheVersionError,
    MergeReport,
    ResultCache,
)
from repro.engine.engine import EngineStats, ExperimentEngine
from repro.engine.executors import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    default_worker_count,
)
from repro.engine.fabric import (
    ShardReport,
    ShardSpec,
    parse_shard,
    run_shard,
    select_shard,
    shard_index,
    shard_jobs,
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
    "CacheMergeError",
    "CacheStats",
    "CacheVersionError",
    "DEFAULT_TRACE_SEED",
    "EngineMetrics",
    "EngineStats",
    "Executor",
    "ExperimentEngine",
    "FINGERPRINT_VERSION",
    "MergeReport",
    "ParallelExecutor",
    "ResultCache",
    "SerialExecutor",
    "ShardReport",
    "ShardSpec",
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
    "parse_shard",
    "run_job",
    "run_shard",
    "select_shard",
    "shard_index",
    "shard_jobs",
]

_default_engine: ExperimentEngine | None = None


def make_engine(
    *,
    workers: int | str | None = None,
    cache_dir: str | os.PathLike | None = None,
    use_cache: bool = True,
) -> ExperimentEngine:
    """Build an engine from simple knobs (the CLI/benchmark entry point).

    ``workers`` accepts an int, ``"auto"`` (one worker per available core) or
    ``None``/``0``/``1`` for serial execution.
    """
    if workers == "auto":
        workers = default_worker_count()
    workers = int(workers) if workers is not None else 1
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
