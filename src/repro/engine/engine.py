"""The experiment engine: jobs in, cached deterministic results out.

:class:`ExperimentEngine` composes an executor (placement) with a result
cache (memoisation) and performs the batch bookkeeping both need: duplicate
jobs inside one submission are simulated once, previously seen jobs are
served from the cache, and everything comes back in submission order.

Results are checkpointed *incrementally*: every finished simulation is
written to the result cache the moment its executor yields it, so a batch
killed part-way through keeps all completed work — the substrate of the
``matrix --resume`` workflow and the distributed campaign fabric
(:mod:`repro.engine.fabric`).  Executors stream results back to the calling
thread, so the engine is single-threaded and needs no lock.
"""

from __future__ import annotations

import copy
import itertools
import os
import time
from dataclasses import dataclass
from typing import Sequence

from repro.analysis.metrics import RunResult
from repro.engine.cache import ResultCache
from repro.engine.executors import Executor, JobRunner, SerialExecutor
from repro.engine.job import SimulationJob
from repro.engine.runner import run_job
from repro.obs.ledger import LedgerWriter, wallclock_timestamp
from repro.obs.logging import get_logger
from repro.obs.metrics import EngineMetrics

_LOGGER = get_logger("repro.engine")

#: Distinguishes engine instances within and across processes in ledger
#: records: metrics snapshots are cumulative per engine, so readers need to
#: know where one engine's history ends and a re-run's begins.
_ENGINE_SESSION_COUNTER = itertools.count()


@dataclass(slots=True)
class EngineStats:
    """Work accounting across an engine's lifetime."""

    jobs_submitted: int = 0
    simulations: int = 0
    cache_hits: int = 0
    batch_duplicates: int = 0

    @property
    def jobs_avoided(self) -> int:
        """Submitted jobs that never reached the executor."""
        return self.cache_hits + self.batch_duplicates


class ExperimentEngine:
    """Submit :class:`SimulationJob` batches; receive :class:`RunResult` lists."""

    def __init__(
        self,
        executor: Executor | None = None,
        cache: ResultCache | None = None,
        *,
        runner: JobRunner = run_job,
    ) -> None:
        self.executor = executor if executor is not None else SerialExecutor()
        self.cache = cache
        self.runner = runner
        self.stats = EngineStats()
        #: Wall-clock/latency/utilization accounting across this engine's
        #: batches (observation-only; see :class:`repro.obs.metrics`).
        self.metrics = EngineMetrics()
        #: When set, ``run_all`` logs a progress line on the ``repro.engine``
        #: logger (INFO) at most once per this many seconds.
        self.heartbeat_seconds: float | None = None
        #: When set, every ``run_all`` batch appends an accounting record
        #: (see :mod:`repro.obs.ledger`).  Observability-only: nothing here
        #: flows into fingerprints, results or digests.
        self.ledger: LedgerWriter | None = None
        self._engine_session = f"{os.getpid()}.{next(_ENGINE_SESSION_COUNTER)}"

    def run(self, job: SimulationJob) -> RunResult:
        """Run one job (through the cache)."""
        return self.run_all([job])[0]

    def run_all(self, jobs: Sequence[SimulationJob]) -> list[RunResult]:
        """Run *jobs*, returning results in submission order.

        Identical jobs (by fingerprint) within the batch are simulated once;
        jobs whose fingerprint is already cached are not simulated at all.
        Fresh results are stored in the cache as each simulation completes,
        so interrupting a long batch preserves the finished prefix on disk.
        """
        jobs = list(jobs)
        results: list[RunResult | None] = [None] * len(jobs)
        pending: dict[str, list[int]] = {}
        served: list[str] = []
        duplicates = 0
        self.stats.jobs_submitted += len(jobs)
        for position, job in enumerate(jobs):
            fingerprint = job.fingerprint()
            if fingerprint in pending:
                pending[fingerprint].append(position)
                self.stats.batch_duplicates += 1
                duplicates += 1
                continue
            cached = self.cache.get(fingerprint) if self.cache is not None else None
            if cached is not None:
                results[position] = cached
                self.stats.cache_hits += 1
                served.append(fingerprint)
            else:
                pending[fingerprint] = [position]

        unique_jobs = [jobs[positions[0]] for positions in pending.values()]
        stream = self.executor.imap_jobs(unique_jobs, self.runner)
        # Metrics/heartbeat accounting is observation-only: per-result
        # inter-arrival time stands in for job wall-clock (exact under the
        # serial executor), arrival-since-batch-start is the queue latency.
        heartbeat = self.heartbeat_seconds
        batch_start = time.perf_counter()
        last_arrival = batch_start
        next_beat = batch_start + heartbeat if heartbeat is not None else None
        completed = 0
        job_seconds: dict[str, float] = {}
        for (fingerprint, positions), result in zip(pending.items(), stream):
            arrival = time.perf_counter()
            self.stats.simulations += 1
            self.metrics.record_job(arrival - last_arrival, arrival - batch_start)
            job_seconds[fingerprint] = arrival - last_arrival
            if self.cache is not None:
                self.cache.put(fingerprint, result)
            last_arrival = arrival
            completed += 1
            if next_beat is not None and arrival >= next_beat:
                assert heartbeat is not None
                next_beat = arrival + heartbeat
                _LOGGER.info(
                    "progress: %d/%d simulation(s) done, %.1fs elapsed, last %s",
                    completed,
                    len(unique_jobs),
                    arrival - batch_start,
                    jobs[positions[0]].describe(),
                )
            results[positions[0]] = result
            for position in positions[1:]:
                results[position] = copy.deepcopy(result)
        if unique_jobs:
            self.metrics.record_batch(time.perf_counter() - batch_start, self.executor.workers)
        if self.ledger is not None and jobs:
            self.ledger.append(
                self._ledger_record(
                    jobs=len(jobs),
                    duplicates=duplicates,
                    cached=sorted(served),
                    simulated=list(pending),
                    job_seconds={fp: round(seconds, 6) for fp, seconds in job_seconds.items()},
                    batch_seconds=round(time.perf_counter() - batch_start, 6),
                )
            )
        return results  # type: ignore[return-value]

    def _ledger_record(self, **payload: object) -> dict[str, object]:
        """One ``batch`` ledger record: the payload plus engine-wide accounting.

        Every record carries the executor mode, shard-independent engine
        session token, the cache's hit/miss/merge counters and the engine's
        cumulative :class:`EngineMetrics` snapshot — enough for
        ``python -m repro.obs ledger summarize`` to rebuild the campaign
        view with no process left alive.
        """
        cache_stats = None
        if self.cache is not None:
            stats = self.cache.stats
            cache_stats = {
                "memory_hits": stats.memory_hits,
                "disk_hits": stats.disk_hits,
                "misses": stats.misses,
                "stores": stats.stores,
                "merged_entries": stats.merged_entries,
                "merge_duplicates": stats.merge_duplicates,
            }
        return {
            "record": "batch",
            "t": round(wallclock_timestamp(), 3),
            "engine_session": self._engine_session,
            "executor": type(self.executor).__name__.removesuffix("Executor").lower(),
            "workers": self.executor.workers,
            "cache": cache_stats,
            "metrics": self.metrics.to_dict(),
            **payload,
        }
