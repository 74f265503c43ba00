"""The work-horizon skip is a pure wall-clock optimisation.

With ``horizon_scheduling`` on, the main loop consumes every clock edge before
the machine's work horizon in bulk (``MCDProcessor._skip_idle_edges``); with it
off, every edge is walked one at a time.  These tests hold the two paths to
the same result: whole-``RunResult`` equality on every machine style, machine
states built by hand that pin each bulk side-effect rule against a per-edge
walk, and generated short jobs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.processor as processor_module
from repro.analysis.metrics import RunResult
from repro.core.domains import Domain
from repro.core.processor import MCDProcessor
from repro.engine import SimulationJob, SpecKind, make_trace, run_job
from repro.pipeline.dyninst import DynInst
from repro.workloads import get_workload


def simulate(job: SimulationJob, *, skip: bool) -> tuple[MCDProcessor, RunResult]:
    processor = MCDProcessor(
        job.build_spec(),
        control=job.resolved_control(),
        phase_adaptive=job.phase_adaptive,
        seed=job.seed,
        jitter_fraction=job.jitter_fraction,
        sync_window_fraction=job.resolved_sync_window_fraction(),
        horizon_scheduling=skip,
    )
    result = processor.run(
        make_trace(job.profile, seed=job.trace_seed),
        max_instructions=job.resolved_window(),
        warmup_instructions=job.resolved_warmup(),
        workload_name=job.profile.name,
    )
    return processor, result


# ------------------------------------------------------------ whole runs

IDENTITY_JOBS = {
    "synchronous": dict(workload="gcc", spec_kind=SpecKind.BEST_SYNCHRONOUS),
    "fixed_mcd": dict(workload="gcc", spec_kind=SpecKind.ADAPTIVE),
    "phase_adaptive": dict(
        workload="em3d",
        spec_kind=SpecKind.BASE_ADAPTIVE,
        use_b_partitions=True,
        phase_adaptive=True,
    ),
    "jittered": dict(workload="gcc", spec_kind=SpecKind.ADAPTIVE, jitter_fraction=0.05),
    "jittered_phase_adaptive": dict(
        workload="gcc",
        spec_kind=SpecKind.BASE_ADAPTIVE,
        use_b_partitions=True,
        phase_adaptive=True,
        jitter_fraction=0.05,
    ),
}


@pytest.mark.parametrize("name", sorted(IDENTITY_JOBS))
def test_run_result_identical_with_and_without_the_skip(name):
    options = dict(IDENTITY_JOBS[name])
    job = SimulationJob(
        profile=get_workload(options.pop("workload")),
        window=2_000,
        warmup=1_500,
        **options,
    )
    _, skipped = simulate(job, skip=True)
    _, walked = simulate(job, skip=False)
    # The comparison only means something if edges were actually skipped.
    assert skipped.horizon_skipped_edges > 0
    assert walked.horizon_skipped_edges == 0
    assert skipped == walked


def test_engine_path_skips_by_default():
    job = SimulationJob(profile=get_workload("gcc"), window=1_200, warmup=800)
    _, direct = simulate(job, skip=True)
    result = run_job(job)
    assert result.horizon_skipped_edges == direct.horizon_skipped_edges > 0
    assert result == direct


def test_skip_counter_describes_the_measured_window():
    job = SimulationJob(profile=get_workload("gcc"), window=1_200, warmup=800)
    _, clean = simulate(job, skip=True)
    polluted = MCDProcessor(job.build_spec(), seed=job.seed)
    polluted.horizon_skipped_edges = 10**9
    result = polluted.run(
        make_trace(job.profile, seed=job.trace_seed),
        max_instructions=job.resolved_window(),
        warmup_instructions=job.resolved_warmup(),
        workload_name=job.profile.name,
    )
    assert result.horizon_skipped_edges == clean.horizon_skipped_edges


@given(
    workload=st.sampled_from(("gcc", "em3d", "mst", "art", "apsi", "adpcm_encode")),
    spec_kind=st.sampled_from(tuple(SpecKind)),
    phase_adaptive=st.booleans(),
    jitter=st.sampled_from((0.0, 0.05)),
    sync_window=st.sampled_from((0.0, 0.1, 0.3, 0.6)),
)
@settings(max_examples=10, deadline=10_000)
def test_generated_short_jobs_identical(workload, spec_kind, phase_adaptive, jitter, sync_window):
    # Phase-adaptive control needs an adaptive machine.
    adaptive = spec_kind in (SpecKind.ADAPTIVE, SpecKind.BASE_ADAPTIVE)
    job = SimulationJob(
        profile=get_workload(workload),
        spec_kind=spec_kind,
        phase_adaptive=phase_adaptive and adaptive,
        window=500,
        warmup=300,
        jitter_fraction=jitter,
        sync_window_fraction=sync_window,
    )
    assert simulate(job, skip=True)[1] == simulate(job, skip=False)[1]


# ---------------------------------------------------- targeted stretches


def drained_processor(*, jitter: float = 0.0) -> MCDProcessor:
    """An MCD processor after a short run, with every in-flight structure emptied.

    The run builds the front end and realistic clock state; each test then
    places the machine's next work by hand.  Deterministic, so two calls
    build twin machines.
    """
    job = SimulationJob(
        profile=get_workload("gcc"),
        spec_kind=SpecKind.ADAPTIVE,
        window=300,
        warmup=200,
        jitter_fraction=jitter,
    )
    processor, _ = simulate(job, skip=True)
    frontend = processor.frontend
    assert frontend is not None
    processor.rob.reset()
    frontend.fetch_queue.clear()
    frontend._waiting_branch = None
    frontend._stall_until = 0
    processor.lsq.reset()
    processor.int_queue.reset()
    processor.fp_queue.reset()
    processor._pending_events.clear()
    processor._changes_in_progress.clear()
    return processor


def walk_edges_before(processor: MCDProcessor, horizon: int) -> None:
    """Process every edge before *horizon* one at a time, as the loop would."""
    clocks = [processor.clocks[domain] for domain in Domain]
    cycles = [
        processor._front_end_cycle,
        processor._integer_cycle,
        processor._floating_point_cycle,
        processor._load_store_cycle,
    ]
    while True:
        # min() keeps the first of equal edges: Domain declaration order.
        index = min(range(len(clocks)), key=lambda i: clocks[i].next_edge)
        edge = clocks[index].next_edge
        if edge >= horizon:
            return
        if processor._pending_events:
            processor._process_pending_events(edge)
        cycles[index](edge)
        clocks[index].advance()


def machine_state(processor: MCDProcessor) -> dict:
    """Everything an idle edge can touch."""
    frontend = processor.frontend
    assert frontend is not None
    return {
        "clocks": [(clock.next_edge, clock.cycle_count) for clock in processor.clocks.values()],
        "fetch_stall_cycles": frontend.stats.fetch_stall_cycles,
        "branch_stall_cycles": frontend.stats.branch_stall_cycles,
        "sync_transfers": processor.sync.stats.transfers,
        "sync_penalties": processor.sync.stats.penalties,
        "queues": [
            (queue.occupancy_samples, queue.occupancy_accumulator, queue.total_issued)
            for queue in (processor.int_queue, processor.fp_queue)
        ],
        "committed": processor.rob.total_committed,
        "dispatched": processor.rob.total_dispatched,
        "pending_events": len(processor._pending_events),
    }


def skip_and_walk(build, next_work) -> tuple[MCDProcessor, dict, dict]:
    """Skip on one twin machine and walk the same edges on the other.

    *next_work* reads, off the built machine, the first edge at which it
    does work: the skip must stop exactly there.  Returns the skipping twin
    and its state before and after the skip, having checked that the walking
    twin ends in that same state.
    """
    skipping, walking = build(), build()
    horizon = next_work(skipping)
    before = machine_state(skipping)
    skipping._skip_idle_edges()
    assert min(clock.next_edge for clock in skipping.clocks.values()) == horizon
    walk_edges_before(walking, horizon)
    after = machine_state(skipping)
    assert after == machine_state(walking)
    return skipping, before, after


def front_end_edges(before: dict, after: dict) -> int:
    return after["clocks"][0][1] - before["clocks"][0][1]


@pytest.mark.parametrize("jitter", [0.0, 0.05])
@pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
def test_commit_attempts_of_a_cross_domain_head(inside, jitter):
    """Each skipped front-end edge is one commit-attempt transfer, penalised
    when the head's capture edge falls inside its unsafe window."""

    def build() -> MCDProcessor:
        processor = drained_processor(jitter=jitter)
        fe_clock = processor.clocks[Domain.FRONT_END]
        edge = fe_clock.edge_at_or_after(fe_clock.next_edge + 20 * fe_clock.period_ps)
        head = DynInst()
        head.exec_domain = Domain.LOAD_STORE.value
        # One picosecond before a front-end edge is inside the window; one
        # after it leaves nearly a whole period to the next edge.
        head.completion_time = edge - 1 if inside else edge + 1
        processor.rob.dispatch(head)
        # Fetch stays stalled past the commit, so the commit sets the horizon.
        processor.frontend._stall_until = edge + 40 * fe_clock.period_ps
        return processor

    def commit_edge(processor: MCDProcessor) -> int:
        window = processor._wake_windows(Domain.FRONT_END.value)[Domain.LOAD_STORE.value]
        completion = processor.rob.head.completion_time + window
        return processor.clocks[Domain.FRONT_END].edge_at_or_after(completion)

    _, before, after = skip_and_walk(build, commit_edge)
    transfers = after["sync_transfers"] - before["sync_transfers"]
    assert transfers == front_end_edges(before, after) > 0
    penalties = after["sync_penalties"] - before["sync_penalties"]
    assert penalties == (transfers if inside else 0)
    assert after["committed"] == before["committed"]


@pytest.mark.parametrize("jitter", [0.0, 0.05])
def test_fetch_stall_stretch(jitter):
    def build() -> MCDProcessor:
        processor = drained_processor(jitter=jitter)
        fe_clock = processor.clocks[Domain.FRONT_END]
        processor.frontend._stall_until = (
            fe_clock.next_edge + 30 * fe_clock.period_ps + fe_clock.period_ps // 2
        )
        return processor

    def fetch_edge(processor: MCDProcessor) -> int:
        fe_clock = processor.clocks[Domain.FRONT_END]
        return fe_clock.edge_at_or_after(processor.frontend.stall_until)

    _, before, after = skip_and_walk(build, fetch_edge)
    stalls = after["fetch_stall_cycles"] - before["fetch_stall_cycles"]
    assert stalls == front_end_edges(before, after) > 0
    assert after["branch_stall_cycles"] == before["branch_stall_cycles"]


@pytest.mark.parametrize("jitter", [0.0, 0.05])
def test_branch_stall_stretch_with_an_occupied_issue_queue(jitter):
    """Fetch waits on a mispredicted branch that sleeps in the integer queue
    until its producer completes; the queue's occupancy samples count it."""

    def build() -> MCDProcessor:
        processor = drained_processor(jitter=jitter)
        int_clock = processor.clocks[Domain.INTEGER]
        producer = DynInst()
        producer.exec_domain = Domain.INTEGER.value
        producer.completion_time = int_clock.next_edge + 15 * int_clock.period_ps
        branch = DynInst()
        branch.mispredicted = True
        branch.producers = (producer,)
        processor.rob.dispatch(branch)
        processor.int_queue.dispatch(branch, int_clock.next_edge)
        processor.int_queue.admit_arrivals(int_clock.next_edge)
        processor.frontend._waiting_branch = branch
        return processor

    def issue_edge(processor: MCDProcessor) -> int:
        (producer,) = processor.int_queue.pending_entries()[0].producers
        int_clock = processor.clocks[Domain.INTEGER]
        return int_clock.edge_at_or_after(producer.completion_time)

    _, before, after = skip_and_walk(build, issue_edge)
    stalls = after["branch_stall_cycles"] - before["branch_stall_cycles"]
    assert stalls == front_end_edges(before, after) > 0
    assert after["fetch_stall_cycles"] == before["fetch_stall_cycles"]
    samples = after["queues"][0][0] - before["queues"][0][0]
    occupancy = after["queues"][0][1] - before["queues"][0][1]
    assert occupancy == samples > 0  # one occupant, sampled every edge
    assert after["queues"][0][2] == before["queues"][0][2]  # not issued yet


@pytest.mark.parametrize("jitter", [0.0, 0.05])
def test_full_fetch_queue_past_stall_until_counts_no_stalls(jitter):
    """With the stall over but the fetch queue full, fetch gives no bound and
    its skipped cycles count nothing; the queue head's dispatch does."""

    def build() -> MCDProcessor:
        processor = drained_processor(jitter=jitter)
        fe_clock = processor.clocks[Domain.FRONT_END]
        fetch_queue = processor.frontend.fetch_queue
        while fetch_queue.has_space:
            inst = DynInst()
            inst.dispatch_ready_time = fe_clock.next_edge + 25 * fe_clock.period_ps
            fetch_queue.push(inst)
        return processor

    def dispatch_edge(processor: MCDProcessor) -> int:
        ready = processor.frontend.fetch_queue.peek().dispatch_ready_time
        return processor.clocks[Domain.FRONT_END].edge_at_or_after(ready)

    _, before, after = skip_and_walk(build, dispatch_edge)
    assert front_end_edges(before, after) > 0
    assert after["fetch_stall_cycles"] == before["fetch_stall_cycles"]
    assert after["branch_stall_cycles"] == before["branch_stall_cycles"]
    assert after["dispatched"] == before["dispatched"]


def test_pending_reconfiguration_event_caps_the_horizon():
    fired: list[bool] = []

    def build() -> MCDProcessor:
        processor = drained_processor()
        fe_clock = processor.clocks[Domain.FRONT_END]
        period = fe_clock.period_ps
        processor.frontend._stall_until = fe_clock.next_edge + 100 * period
        event_time = fe_clock.next_edge + 10 * period + period // 2
        processor._pending_events.append((event_time, lambda: fired.append(True)))
        return processor

    def event_edge(processor: MCDProcessor) -> int:
        event_time = processor._pending_events[0][0]
        return min(clock.edge_at_or_after(event_time) for clock in processor.clocks.values())

    processor, _, after = skip_and_walk(build, event_edge)
    event_time = processor._pending_events[0][0]
    for clock in processor.clocks.values():
        # Every domain stopped at its first edge at or after the event.
        assert event_time <= clock.next_edge < event_time + clock.period_ps
    assert after["pending_events"] == 1
    assert not fired


# ------------------------------------------------------------ deadlock


@pytest.mark.parametrize("skip", [True, False])
def test_deadlock_guard_fires_on_a_head_that_never_completes(monkeypatch, skip):
    monkeypatch.setattr(processor_module, "_DEADLOCK_LIMIT", 500)
    job = SimulationJob(profile=get_workload("gcc"), window=400, warmup=200)
    processor = MCDProcessor(job.build_spec(), horizon_scheduling=skip)
    # A ROB head no domain will ever execute: nothing behind it can commit.
    processor.rob.dispatch(DynInst())
    with pytest.raises(RuntimeError, match="500 main-loop iterations"):
        processor.run(
            make_trace(job.profile, seed=job.trace_seed),
            max_instructions=job.resolved_window(),
            warmup_instructions=job.resolved_warmup(),
        )
