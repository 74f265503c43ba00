"""Engine metrics: histograms, utilization and progress accounting.

:class:`EngineMetrics` is the accumulator the
:class:`~repro.engine.engine.ExperimentEngine` feeds as results stream out
of its executor; a snapshot of it is what the campaign and sweep CLIs print
in their end-of-run summaries.  All timing uses ``time.perf_counter`` (a
monotonic interval clock — host wall-clock functions are banned from the
simulation path by the ``det-wallclock`` rule, and nothing here flows into
simulated results anyway).

The histograms are fixed-bound log-spaced buckets, so memory stays constant
however many jobs a campaign runs; percentiles are bucket-resolution
approximations, which is all a progress summary needs.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Mapping, Sequence

__all__ = ["EngineMetrics", "Histogram"]

#: Log-spaced bucket upper bounds (seconds) covering sub-millisecond cache
#: hits through multi-minute simulations; values beyond the last bound land
#: in an unbounded overflow bucket.
_DEFAULT_BOUNDS: tuple[float, ...] = (
    0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0,
)


class Histogram:
    """Fixed-bucket histogram of non-negative samples (seconds)."""

    def __init__(self, bounds: Sequence[float] = _DEFAULT_BOUNDS) -> None:
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bounds = tuple(float(bound) for bound in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = 0.0
        self.max = 0.0

    def record(self, value: float) -> None:
        """Add one sample."""
        value = max(0.0, float(value))
        self.counts[bisect_left(self.bounds, value)] += 1
        if not self.count or value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        """Arithmetic mean of the recorded samples (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Bucket-resolution upper bound of the *fraction* percentile.

        Returns the upper bound of the bucket containing the requested rank
        (the exact maximum for the overflow bucket), which is accurate to
        one log-spaced bucket — sufficient for progress summaries.
        """
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        if not self.count:
            return 0.0
        rank = fraction * self.count
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                return self.bounds[index] if index < len(self.bounds) else self.max
        return self.max  # pragma: no cover - rank <= count always hits above

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form for ``--json`` output."""
        return {
            "count": self.count,
            "total_seconds": self.total,
            "mean_seconds": self.mean,
            "min_seconds": self.min,
            "max_seconds": self.max,
            "bounds_seconds": list(self.bounds),
            "counts": list(self.counts),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Histogram":
        """Rebuild a histogram from :meth:`to_dict` output (validating it).

        This is what lets a snapshot outlive its process: ledger records
        store ``to_dict`` payloads, and ledger summaries reload them here
        before :meth:`merge`-ing bucket-wise.
        """
        histogram = cls(bounds=tuple(float(b) for b in data["bounds_seconds"]))
        counts = [int(c) for c in data["counts"]]
        if len(counts) != len(histogram.counts):
            raise ValueError(
                f"histogram snapshot has {len(counts)} bucket count(s) for "
                f"{len(histogram.bounds)} bound(s); expected "
                f"{len(histogram.counts)}"
            )
        if any(c < 0 for c in counts):
            raise ValueError("histogram snapshot has negative bucket counts")
        count = int(data["count"])
        if count != sum(counts):
            raise ValueError(
                f"histogram snapshot count {count} does not equal the bucket "
                f"sum {sum(counts)}"
            )
        histogram.counts = counts
        histogram.count = count
        histogram.total = float(data["total_seconds"])
        histogram.min = float(data["min_seconds"])
        histogram.max = float(data["max_seconds"])
        return histogram

    def merge(self, other: "Histogram") -> None:
        """Fold *other* into this histogram, bucket-wise.

        Both histograms must share the identical bucket bounds — merging
        across differing layouts would silently misbin — and the merged
        min/max/total/count are exactly what recording both sample streams
        into one histogram would have produced.
        """
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{other.bounds} vs {self.bounds}"
            )
        if not other.count:
            return
        if not self.count:
            self.min = other.min
        else:
            self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self.count += other.count
        self.total += other.total
        for index, count in enumerate(other.counts):
            self.counts[index] += count


class EngineMetrics:
    """Per-engine accounting of job wall-clock, queue latency and utilization.

    ``job_seconds`` holds per-result completion intervals (for a serial
    executor, exactly each simulation's wall-clock; for a parallel one, the
    inter-arrival time observed by the collecting thread).  ``queue_latency``
    holds each result's arrival time relative to its batch's start — how
    long a caller waited for that job.  Utilization is busy-time over
    ``elapsed x workers``, aggregated across batches.
    """

    def __init__(self) -> None:
        self.job_seconds = Histogram()
        self.queue_latency = Histogram()
        self.jobs_completed = 0
        self.batches = 0
        self.busy_seconds = 0.0
        self.capacity_seconds = 0.0

    def record_job(self, duration_seconds: float, latency_seconds: float) -> None:
        """Account one result arriving from the executor."""
        self.jobs_completed += 1
        self.job_seconds.record(duration_seconds)
        self.queue_latency.record(latency_seconds)
        self.busy_seconds += max(0.0, duration_seconds)

    def record_batch(self, elapsed_seconds: float, workers: int) -> None:
        """Account one completed batch of *workers*-wide capacity."""
        self.batches += 1
        self.capacity_seconds += max(0.0, elapsed_seconds) * max(1, workers)

    @property
    def worker_utilization(self) -> float:
        """Busy fraction of the executor capacity across recorded batches."""
        if self.capacity_seconds <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / self.capacity_seconds)

    def to_dict(self) -> dict[str, Any]:
        """Plain-data snapshot for ``--json`` output."""
        return {
            "jobs_completed": self.jobs_completed,
            "batches": self.batches,
            "busy_seconds": self.busy_seconds,
            "capacity_seconds": self.capacity_seconds,
            "worker_utilization": self.worker_utilization,
            "job_seconds": self.job_seconds.to_dict(),
            "queue_latency": self.queue_latency.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EngineMetrics":
        """Rebuild a snapshot from :meth:`to_dict` output.

        ``worker_utilization`` is a derived property and is recomputed from
        the reloaded busy/capacity seconds rather than trusted from the
        payload.
        """
        metrics = cls()
        metrics.jobs_completed = int(data["jobs_completed"])
        metrics.batches = int(data["batches"])
        metrics.busy_seconds = float(data["busy_seconds"])
        metrics.capacity_seconds = float(data["capacity_seconds"])
        metrics.job_seconds = Histogram.from_dict(data["job_seconds"])
        metrics.queue_latency = Histogram.from_dict(data["queue_latency"])
        return metrics

    def merge(self, other: "EngineMetrics") -> None:
        """Fold *other*'s accounting into this accumulator.

        Scalars add; histograms add bucket-wise (:meth:`Histogram.merge`).
        This is how a ledger summary fuses several files and engine
        sessions: merging each session's final snapshot yields the
        campaign-wide job-count, busy-time and latency distribution, with
        utilization re-derived from the summed busy and capacity seconds.
        """
        self.jobs_completed += other.jobs_completed
        self.batches += other.batches
        self.busy_seconds += other.busy_seconds
        self.capacity_seconds += other.capacity_seconds
        self.job_seconds.merge(other.job_seconds)
        self.queue_latency.merge(other.queue_latency)

    def summary_lines(self) -> list[str]:
        """Human-readable summary for campaign/sweep end-of-run output."""
        if not self.jobs_completed:
            return ["engine metrics: no executor work (all jobs cached or deduplicated)"]
        jobs = self.job_seconds
        latency = self.queue_latency
        return [
            (
                f"engine metrics: {self.jobs_completed} job(s) in "
                f"{self.batches} batch(es), worker utilization "
                f"{self.worker_utilization:.0%}"
            ),
            (
                f"  job wall-clock: mean {jobs.mean:.3f}s, "
                f"p50<={jobs.percentile(0.5):.3f}s, "
                f"p90<={jobs.percentile(0.9):.3f}s, max {jobs.max:.3f}s"
            ),
            (
                f"  queue latency : mean {latency.mean:.3f}s, "
                f"p90<={latency.percentile(0.9):.3f}s, max {latency.max:.3f}s"
            ),
        ]
