"""Timed repeats of one workload, the checks on their outputs, and the metrics.

End-to-end metrics come from untraced repeats and per-layer metrics from
traced ones; ``README.md`` defines each of them.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass

from repro.analysis.digests import energy_digest, result_digest
from repro.analysis.metrics import RunResult
from repro.bench.timer import calibrate
from repro.engine import (
    CacheStats,
    ExperimentEngine,
    ResultCache,
    SerialExecutor,
    SimulationJob,
    SpecKind,
)
from repro.scenarios import count_reconfigurations

from perfbench.tracing import JobRecord, SpanRecorder, TimedCache, plain_runner, traced_runner
from perfbench.workloads import Plan, Seeds, Workload, plan

#: End-to-end metrics, measured on untraced repeats, and their units.
END_TO_END = {
    "sim_kips": "kinst/ref-s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "phase_speed_pct": "%",
}

#: Per-layer metrics, measured on traced repeats, and their units.
PER_LAYER = {
    "workloads.trace_compile_s": "s",
    "workloads.trace_insts": "count",
    "engine.fingerprint_s": "s",
    "engine.fingerprints": "count",
    "engine.cache_get_s": "s",
    "engine.cache_put_s": "s",
    "engine.cache_hit_ratio": "ratio",
    "engine.overhead_s": "s",
    "core.construct_s": "s",
    "core.construct_ms_per_job": "ms",
    "core.simulate_s": "s",
    "core.warmup_s": "s",
    "core.warmup_insts": "count",
    "core.warmup_ns_per_inst": "ns",
    "core.main_loop_s": "s",
    "core.main_loop_edges": "count",
    "core.main_loop_ns_per_edge": "ns",
    "core.main_loop_ns_per_edge.sync": "ns",
    "core.main_loop_cost.fixed": "x",
    "core.main_loop_cost.phase": "x",
    "core.main_loop_cost.jitter": "x",
    "core.edges_per_commit": "ratio",
    "core.skipped_edge_share": "%",
    "core.controllers.reconfigurations": "count",
    "core.result_build_s": "s",
    "energy.pricing_s": "s",
    "energy.reports": "count",
    "clocks.jitter_share": "%",
    "host.speed_probe_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.span_coverage_pct": "%",
}

#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 3

#: What the speed probe reads on the reference host.  ``sim_kips`` is scaled
#: by the run's median probe over this, because the shared host's speed
#: swings by tens of percent from one minute to the next.
REFERENCE_PROBE_MS = 15.0


def check(record: JobRecord) -> list[str]:
    """The output invariants that *record*'s job breaks, if any."""
    job, result = record.job, record.result
    broken = []
    if result.committed_instructions < job.resolved_window():
        broken.append("committed instructions < window")
    if result.loads + result.stores != result.l1d_hits_a + result.l1d_hits_b + result.l1d_misses:
        broken.append("loads + stores != L1-D A hits + B hits + misses")
    if result.sync_penalties > result.sync_transfers:
        broken.append("sync penalties > sync transfers")
    if result.execution_time_ps <= 0:
        broken.append("execution time <= 0")
    if any(entry.dynamic_nj < 0 or entry.leakage_nj < 0 for entry in record.report.structures):
        broken.append("negative energy term")
    return [f"{job.describe()}: {problem}" for problem in broken]


def combined_digest(records: list[JobRecord]) -> str:
    """sha256 over every job's timing and energy digests, in simulation order."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(result_digest(record.result).encode())
        digest.update(energy_digest(record.result).encode())
    return digest.hexdigest()


def speed_probe_ms() -> float:
    """The host-speed probe, ``repro.bench.timer.calibrate`` (best of 3), in ms."""
    return calibrate(repeats=3) * 1e3


def job_class(job: SimulationJob) -> str:
    """The machine class a job's main-loop time is attributed to."""
    if job.jitter_fraction > 0:
        return "jitter"
    if job.phase_adaptive:
        return "phase"
    if job.spec_kind in (SpecKind.SYNCHRONOUS, SpecKind.BEST_SYNCHRONOUS):
        return "sync"
    return "fixed"


def processed_edges(result: RunResult) -> int:
    """Clock edges the main loop processed one at a time.

    The bulk-skip counters default to 0, so deleting the skip machinery
    shows as more processed edges rather than as an error.
    """
    skipped = getattr(result, "horizon_skipped_edges", 0) + getattr(
        result, "fast_forward_cycles", 0
    )
    return sum(result.domain_cycles.values()) - skipped


def layer_metrics(
    recorder: SpanRecorder, records: list[JobRecord], cache: CacheStats
) -> dict[str, float]:
    """Per-layer metrics of one traced repeat; its first span is the workload."""
    wall = recorder.spans[0].seconds
    classes = {record.fingerprint: job_class(record.job) for record in records}
    seconds: dict[str, float] = defaultdict(float)
    counts: Counter[str] = Counter()
    loop_s: dict[str, float] = defaultdict(float)
    job_s: dict[str, float] = defaultdict(float)
    for span in recorder.spans:
        seconds[span.name] += span.seconds
        counts[span.name] += 1
        if span.name == "main_loop":
            loop_s[classes[span.ident]] += span.seconds
        elif span.name == "job":
            job_s[classes[span.ident]] += span.seconds
    edges: dict[str, int] = defaultdict(int)
    for record in records:
        edges[job_class(record.job)] += processed_edges(record.result)
    total_edges = sum(edges.values())
    cycles = sum(sum(record.result.domain_cycles.values()) for record in records)
    committed = sum(record.result.committed_instructions for record in records)
    warmup_insts = sum(record.job.resolved_warmup() for record in records)
    lookups = cache.memory_hits + cache.disk_hits + cache.misses
    covered = sum(span.seconds for span in recorder.spans if span.parent == 0)

    def ns_per_edge(kind: str) -> float:
        return loop_s[kind] / edges[kind] * 1e9 if edges[kind] else 0.0

    sync_ns = ns_per_edge("sync")

    def cost(kind: str) -> float:
        return ns_per_edge(kind) / sync_ns if sync_ns else 0.0

    return {
        "engine.fingerprint_s": seconds["fingerprint"],
        "engine.fingerprints": counts["fingerprint"],
        "engine.cache_get_s": seconds["cache_get"],
        "engine.cache_put_s": seconds["cache_put"],
        "engine.cache_hit_ratio": (lookups - cache.misses) / lookups if lookups else 0.0,
        "engine.overhead_s": wall - seconds["job"],
        "core.construct_s": seconds["construct"],
        "core.construct_ms_per_job": seconds["construct"] / len(records) * 1e3,
        "core.simulate_s": seconds["simulate"],
        "core.warmup_s": seconds["warmup"],
        "core.warmup_insts": warmup_insts,
        "core.warmup_ns_per_inst": seconds["warmup"] / warmup_insts * 1e9 if warmup_insts else 0.0,
        "core.main_loop_s": seconds["main_loop"],
        "core.main_loop_edges": total_edges,
        "core.main_loop_ns_per_edge": seconds["main_loop"] / total_edges * 1e9,
        "core.main_loop_ns_per_edge.sync": sync_ns,
        "core.main_loop_cost.fixed": cost("fixed"),
        "core.main_loop_cost.phase": cost("phase"),
        "core.main_loop_cost.jitter": cost("jitter"),
        "core.edges_per_commit": total_edges / committed,
        "core.skipped_edge_share": (cycles - total_edges) / cycles * 100,
        "core.controllers.reconfigurations": sum(
            sum(count_reconfigurations(record.result).values()) for record in records
        ),
        "core.result_build_s": seconds["result_build"],
        "energy.pricing_s": seconds["energy"],
        "energy.reports": counts["energy"],
        "clocks.jitter_share": job_s["jitter"] / wall * 100,
        "trace.span_coverage_pct": covered / wall * 100,
    }


@dataclass
class Repeat:
    """One timed pass over a workload and what its checks found."""

    traced: bool
    wall_s: float
    cpu_s: float
    probes_ms: tuple[float, float]
    instructions: int
    attempted: int
    failed: int
    gains: list[float]
    digest: str
    problems: list[str]
    layers: dict[str, float]
    recorder: SpanRecorder | None


def timed_repeat(workload: Workload, current: Plan, seeds: Seeds, *, traced: bool) -> Repeat:
    """Drive *workload* once on a fresh engine, then check every job's output."""
    records: list[JobRecord] = []
    recorder = SpanRecorder() if traced else None
    if recorder is None:
        cache = ResultCache()
        runner = plain_runner(records)
    else:
        cache = TimedCache(recorder)
        runner = traced_runner(recorder, records)
    engine = ExperimentEngine(SerialExecutor(), cache, runner=runner)
    problems: list[str] = []
    gains: list[float] = []
    gc.collect()
    probe_before = speed_probe_ms()
    cpu_started = time.process_time()
    started = time.perf_counter()
    try:
        if recorder is None:
            gains = workload.drive(workload, current.profiles, seeds, engine)
        else:
            with recorder.span("workload", workload.name):
                gains = workload.drive(workload, current.profiles, seeds, engine)
    except Exception:
        # A job that raises ends its batch; it is reported as a failed job.
        problems.append(traceback.format_exc())
    wall_s = time.perf_counter() - started
    cpu_s = time.process_time() - cpu_started
    probe_after = speed_probe_ms()
    attempted = len(records) + len(problems)
    failed = len(problems)
    for record in records:
        broken = check(record)
        failed += bool(broken)
        problems.extend(broken)
    if not current.traces_unchanged(seeds):
        problems.append("set-up isolation: timed jobs compiled trace rows or evicted a trace")
    layers = {}
    if recorder is not None and not problems:
        layers = layer_metrics(recorder, records, cache.stats)
    return Repeat(
        traced=traced,
        wall_s=wall_s,
        cpu_s=cpu_s,
        probes_ms=(probe_before, probe_after),
        instructions=sum(record.result.committed_instructions for record in records),
        attempted=attempted,
        failed=failed,
        gains=gains,
        digest=combined_digest(records),
        problems=problems,
        layers=layers,
        recorder=recorder,
    )


@dataclass
class Outcome:
    """Every set-up and timed repeat of one benchmark run."""

    setup_s: list[float]
    compile_s: list[float]
    trace_insts: int
    repeats: list[Repeat]

    @property
    def attempted(self) -> int:
        return sum(repeat.attempted for repeat in self.repeats)

    @property
    def failed(self) -> int:
        return sum(repeat.failed for repeat in self.repeats)

    @property
    def problems(self) -> list[str]:
        """Every failed check, including digests that differ between repeats."""
        problems = [problem for repeat in self.repeats for problem in repeat.problems]
        digests = sorted({repeat.digest for repeat in self.repeats})
        if len(digests) > 1:
            problems.append(f"output digest differs between repeats: {', '.join(digests)}")
        return problems


def measure(workload: Workload, seeds: Seeds, seconds: float, *, trace: bool) -> Outcome:
    """Set *workload* up ``SETUPS`` times, then repeat it for about *seconds*.

    A repeat starts only while the previous one's duration still fits in the
    budget, and there is always one.  With *trace*, repeats alternate
    untraced and traced, starting untraced, and there is one of each.  The
    run stops at the first repeat whose checks fail.
    """
    setup_s: list[float] = []
    compile_s: list[float] = []
    for _ in range(SETUPS):
        # Drop the previous set-up's traces first: they must not add to peak memory.
        current = None
        started = time.perf_counter()
        current = plan(workload, seeds)
        setup_s.append(time.perf_counter() - started)
        compile_s.append(current.compile_s)
    repeats: list[Repeat] = []
    started = time.perf_counter()
    while True:
        repeat = timed_repeat(workload, current, seeds, traced=trace and len(repeats) % 2 == 1)
        repeats.append(repeat)
        if repeat.problems:
            break
        if trace and len(repeats) < 2:
            continue
        if time.perf_counter() - started + repeat.wall_s > seconds:
            break
    return Outcome(setup_s, compile_s, sum(current.lengths), repeats)


def probe_ms(outcome: Outcome) -> float:
    """The run's median speed probe, over every probe taken around its repeats."""
    return statistics.median(probe for repeat in outcome.repeats for probe in repeat.probes_ms)


def end_to_end(outcome: Outcome, import_s: float) -> dict[str, float]:
    """The end-to-end metrics of a run; *import_s* is the time to import ``repro``."""
    untraced = [repeat for repeat in outcome.repeats if not repeat.traced]
    gains = untraced[0].gains
    kips = statistics.median(r.instructions / r.wall_s for r in untraced) / 1e3
    return {
        "sim_kips": kips * probe_ms(outcome) / REFERENCE_PROBE_MS,
        "setup_s": import_s + statistics.median(outcome.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "phase_speed_pct": 100 * (1 + statistics.fmean(gains)) if gains else 0.0,
    }


def per_layer(outcome: Outcome) -> dict[str, float]:
    """The per-layer metrics of a traced run: medians over its traced repeats."""
    traced = [repeat for repeat in outcome.repeats if repeat.layers]
    untraced = [repeat for repeat in outcome.repeats if not repeat.traced]
    metrics = {
        name: statistics.median(repeat.layers[name] for repeat in traced)
        for name in (traced[0].layers if traced else ())
    }
    metrics["workloads.trace_compile_s"] = statistics.median(outcome.compile_s)
    metrics["workloads.trace_insts"] = outcome.trace_insts
    metrics["host.speed_probe_ms"] = probe_ms(outcome)
    if traced:
        traced_wall = statistics.median(repeat.wall_s for repeat in traced)
        untraced_wall = statistics.median(repeat.wall_s for repeat in untraced)
        metrics["trace.overhead_pct"] = (traced_wall / untraced_wall - 1) * 100
    return metrics
