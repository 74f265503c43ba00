"""Pluggable job executors for the experiment engine.

Executors only order and place work; they never interpret it.  Both built-in
executors preserve input order and run the same module-level runner, so a
sweep produces bit-identical results whichever executor carries it (the
simulations themselves are deterministic).
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor as _ProcessPool
from typing import Callable, Iterator, Protocol, Sequence, TypeVar

from repro.analysis.metrics import RunResult
from repro.engine.job import SimulationJob

JobRunner = Callable[[SimulationJob], RunResult]

#: What a runner returns for one job; executors pass it through untouched.
Output = TypeVar("Output")


class Executor(Protocol):
    """Minimal interface the engine requires of an executor."""

    name: str

    @property
    def workers(self) -> int:
        """Degree of parallelism the executor provides."""
        ...

    def imap_jobs(
        self, jobs: Sequence[SimulationJob], runner: Callable[[SimulationJob], Output]
    ) -> Iterator[Output]:
        """Run *jobs* through *runner*, yielding results in input order.

        Results become available as individual jobs finish, so the engine
        can persist each one to the result cache immediately — a killed
        batch keeps every completed simulation instead of losing the whole
        submission.
        """
        ...


class SerialExecutor:
    """Run every job in the calling process, one after another."""

    name = "serial"

    @property
    def workers(self) -> int:
        return 1

    def imap_jobs(
        self, jobs: Sequence[SimulationJob], runner: Callable[[SimulationJob], Output]
    ) -> Iterator[Output]:
        for job in jobs:
            yield runner(job)


def default_worker_count() -> int:
    """Worker count used when none is requested: one per available core."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # platforms without sched_getaffinity
        return max(1, os.cpu_count() or 1)


class ParallelExecutor:
    """Fan jobs out over a :class:`concurrent.futures.ProcessPoolExecutor`.

    Jobs are shipped in chunks (``chunk_size``, default ~4 chunks per worker
    per batch) to amortise pickling overhead.  Batches too small to benefit
    from extra processes fall back to in-process execution.
    """

    name = "parallel"

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        chunk_size: int | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        self.max_workers = max_workers if max_workers is not None else default_worker_count()
        self.chunk_size = chunk_size

    @property
    def workers(self) -> int:
        return self.max_workers

    def _context(self):
        methods = multiprocessing.get_all_start_methods()
        # Fork keeps warm-interpreter start-up cost out of the sweep; fall
        # back to the platform default where fork is unavailable.
        return multiprocessing.get_context("fork" if "fork" in methods else None)

    def _chunk_size(self, job_count: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, math.ceil(job_count / (self.max_workers * 4)))

    def imap_jobs(
        self, jobs: Sequence[SimulationJob], runner: Callable[[SimulationJob], Output]
    ) -> Iterator[Output]:
        if self.max_workers == 1 or len(jobs) <= 1:
            yield from SerialExecutor().imap_jobs(jobs, runner)
            return
        workers = min(self.max_workers, len(jobs))
        with _ProcessPool(max_workers=workers, mp_context=self._context()) as pool:
            # pool.map yields completed results in input order as chunks
            # finish, so the consumer can checkpoint progressively.
            yield from pool.map(runner, jobs, chunksize=self._chunk_size(len(jobs)))
