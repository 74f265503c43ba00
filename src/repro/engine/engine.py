"""The experiment engine: jobs in, cached deterministic results out.

:class:`ExperimentEngine` composes an executor (placement) with a result
cache (memoisation) and performs the batch bookkeeping both need: duplicate
jobs inside one submission are simulated once, previously seen jobs are
served from the cache, and everything comes back in submission order.

Results are checkpointed *incrementally*: every finished simulation is
written to the result cache the moment its executor yields it, so a batch
killed part-way through keeps all completed work — the substrate of the
``matrix --resume`` workflow.  An attached run ledger gets a record when a
batch is submitted and one per simulated job as its result is stored
(:mod:`repro.obs.ledger`), so the ledger of a killed batch accounts for
every result it left.  Executors stream results back to the calling
thread, so the engine is single-threaded and needs no lock.
"""

from __future__ import annotations

import copy
import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import Sequence

from repro.analysis.metrics import RunResult
from repro.engine.cache import ResultCache
from repro.engine.executors import Executor, JobRunner, SerialExecutor
from repro.engine.job import SimulationJob
from repro.engine.runner import run_job
from repro.obs.ledger import LedgerWriter, batch_record, job_record


def _timed(runner: JobRunner, job: SimulationJob) -> tuple[RunResult, float]:
    """*runner*'s result for *job*, and the seconds the call took.

    Module-level, so that a process pool ships it (bound to a module-level
    runner) to its workers: each job is timed in the process that runs it.
    """
    started = time.perf_counter()
    result = runner(job)
    return result, time.perf_counter() - started


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
        #: When set, ``run_all`` prints a progress line to stderr at most
        #: once per this many seconds.
        self.heartbeat_seconds: float | None = None
        #: When set, ``run_all`` appends a record per batch and per simulated
        #: job (see :mod:`repro.obs.ledger`).  Observability-only: nothing
        #: here flows into fingerprints, results or digests.
        self.ledger: LedgerWriter | None = None

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

        if self.ledger is not None and jobs:
            self.ledger.append(
                batch_record(
                    executor=self.executor.name,
                    workers=self.executor.workers,
                    jobs=len(jobs),
                    duplicates=duplicates,
                    cached=served,
                )
            )

        unique_jobs = [jobs[positions[0]] for positions in pending.values()]
        stream = self.executor.imap_jobs(unique_jobs, partial(_timed, self.runner))
        heartbeat = self.heartbeat_seconds
        batch_start = time.perf_counter()
        next_beat = batch_start + heartbeat if heartbeat is not None else None
        for completed, (job, (fingerprint, positions), (result, seconds)) in enumerate(
            zip(unique_jobs, pending.items(), stream), start=1
        ):
            self.stats.simulations += 1
            if self.cache is not None:
                self.cache.put(fingerprint, result)
            if self.ledger is not None:
                self.ledger.append(job_record(fingerprint, job.describe(), seconds, result))
            if next_beat is not None and (now := time.perf_counter()) >= next_beat:
                assert heartbeat is not None
                next_beat = now + heartbeat
                print(
                    f"[repro.engine] progress: {completed}/{len(unique_jobs)} "
                    f"simulation(s) done, {now - batch_start:.1f}s elapsed, "
                    f"last {job.describe()}",
                    file=sys.stderr,
                )
            results[positions[0]] = result
            for position in positions[1:]:
                results[position] = copy.deepcopy(result)
        return results  # type: ignore[return-value]
