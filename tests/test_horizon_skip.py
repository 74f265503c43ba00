"""The work-horizon skip and the keyed wake-up are pure wall-clock optimisations.

With ``horizon_scheduling`` on, the main loop consumes every clock edge before
the machine's work horizon in bulk (``MCDProcessor._horizon_skipper``); with it
off, every edge is walked one at a time.  These tests hold the two paths to
the same result: whole-``RunResult`` equality on every machine style, machine
states built by hand that pin each bulk side-effect rule against a per-edge
walk, and generated short jobs.  The issue queues' wake-up heaps are held to
a rescan of every arrived entry at every integer and floating-point edge,
on generated jobs and across a period change that re-keys them, and the
load/store queue's ready list to a rescan of its arrived, unperformed
entries after every load/store edge.
"""

from __future__ import annotations

from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.processor as processor_module
from repro.analysis.metrics import RunResult
from repro.core import ArchitecturalParameters
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
    # Warm-up walks no clock edge, so the counter is still zero when the
    # main loop starts and counts only the measured window's skips.
    job = SimulationJob(profile=get_workload("gcc"), window=1_200, warmup=800)
    _, clean = simulate(job, skip=True)
    observed = MCDProcessor(job.build_spec(), seed=job.seed)
    main_loop = observed._main_loop
    at_main_loop = []

    def observed_main_loop(max_instructions: int) -> None:
        at_main_loop.append(observed.horizon_skipped_edges)
        main_loop(max_instructions)

    observed._main_loop = observed_main_loop
    result = observed.run(
        make_trace(job.profile, seed=job.trace_seed),
        max_instructions=job.resolved_window(),
        warmup_instructions=job.resolved_warmup(),
        workload_name=job.profile.name,
    )
    assert at_main_loop == [0]
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
    # Phase-adaptive control and clock jitter need an adaptive machine.
    adaptive = spec_kind in (SpecKind.ADAPTIVE, SpecKind.BASE_ADAPTIVE)
    job = SimulationJob(
        profile=get_workload(workload),
        spec_kind=spec_kind,
        phase_adaptive=phase_adaptive and adaptive,
        window=500,
        warmup=300,
        jitter_fraction=jitter if adaptive else 0.0,
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
    processor.rob.entries.clear()
    frontend.fetch_queue.entries.clear()
    frontend.waiting_branch = None
    frontend.stall_until = 0
    processor.lsq.entries.clear()
    processor.lsq.heap.clear()
    processor.lsq.ready.clear()
    for queue in (processor.int_queue, processor.fp_queue):
        queue.heap.clear()
        queue.ready.clear()
        queue.occupancy = 0
    processor._pending_events.clear()
    processor._changes_in_progress.clear()
    return processor


def enter_int_queue(processor: MCDProcessor, inst: DynInst, arrival: int) -> None:
    """Dispatch *inst* into the ROB and the integer queue, arriving at
    *arrival*, as ``MCDProcessor._dispatch`` does for an instruction whose
    producers all have completion times."""
    processor.rob.entries.append(inst)
    queue = processor.int_queue
    inst.queue_arrival_time = arrival
    queue.occupancy += 1
    queue.schedule(inst)


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
    skipping._horizon_skipper()()
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
        processor.rob.entries.append(head)
        # Fetch stays stalled past the commit, so the commit sets the horizon.
        processor.frontend.stall_until = edge + 40 * fe_clock.period_ps
        return processor

    def commit_edge(processor: MCDProcessor) -> int:
        window = processor._wake_window_table[Domain.FRONT_END.value][Domain.LOAD_STORE.value]
        completion = processor.rob.entries[0].completion_time + window
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
        processor.frontend.stall_until = (
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
        branch.producers = (producer,)
        enter_int_queue(processor, branch, int_clock.next_edge)
        processor.frontend.waiting_branch = branch
        return processor

    def issue_edge(processor: MCDProcessor) -> int:
        (producer,) = processor.rob.entries[0].producers
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
        while len(fetch_queue.entries) < fetch_queue.capacity:
            inst = DynInst()
            inst.dispatch_ready_time = fe_clock.next_edge + 25 * fe_clock.period_ps
            fetch_queue.entries.append(inst)
        return processor

    def dispatch_edge(processor: MCDProcessor) -> int:
        ready = processor.frontend.fetch_queue.entries[0].dispatch_ready_time
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
        processor.frontend.stall_until = fe_clock.next_edge + 100 * period
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


# ------------------------------------------------------------ wake-up


def rescan_ready(processor: MCDProcessor, domain_name: str, now: int) -> list[DynInst]:
    """The reference wake-up: rescan every arrived, unissued entry of a queue.

    This is the arithmetic of the per-edge scan the wake-up heaps replaced:
    an entry is ready at edge *now* once every producer has completed and
    ``completion + window <= now``, the window being the synchronisation
    window from the producer's domain (0 within the domain).  Ready entries
    issue oldest first.
    """
    windows = processor._wake_window_table[domain_name]
    is_fp = domain_name == Domain.FLOATING_POINT.value
    lsq = processor.lsq
    # A memory op has issued once its address is generated, when it enters
    # the load/store queue's heap.
    in_lsq = {id(inst) for inst in lsq.ready} | {id(inst) for _, _, inst in lsq.heap}
    ready = []
    for inst in processor.rob.entries:
        if inst.is_fp != is_fp or inst.queue_arrival_time > now:
            continue  # another queue's entry, or not arrived yet
        if inst.completion_time is not None or id(inst) in in_lsq:
            continue  # issued
        wake = 0
        for producer in inst.producers:
            if producer is None:
                continue
            completion = producer.completion_time
            if completion is None:
                break
            exec_domain = producer.exec_domain
            if exec_domain != domain_name:
                completion += windows[exec_domain]
            if completion > wake:
                wake = completion
        else:
            if wake <= now:
                ready.append(inst)
    ready.sort(key=attrgetter("seq"))
    return ready


class ProgramOrderList(list):
    """A ready list that fails when an entry joins it out of program order."""

    def append(self, inst: DynInst) -> None:
        assert not self or self[-1].seq < inst.seq
        super().append(inst)

    def insert(self, index, inst: DynInst) -> None:
        super().insert(index, inst)
        seqs = [entry.seq for entry in self[max(index - 1, 0) : index + 2]]
        assert seqs == sorted(set(seqs))


def rescan_lsq(processor: MCDProcessor, arrivals: dict[int, int], now: int) -> list[DynInst]:
    """The reference load/store wake-up: every LSQ entry that has arrived by
    *now* (its address generated, *arrivals* giving the arrival time by
    ``seq``) and not performed its access, in program order."""
    return [
        inst
        for inst in processor.lsq.entries
        if inst.completion_time is None and arrivals.get(inst.seq, now + 1) <= now
    ]


def check_wake_up(processor: MCDProcessor, after_edge=None) -> None:
    """Make every integer, FP and load/store edge check its queue against
    the rescan.

    The entries the issue queues' heaps make ready at an edge (the ready
    list once every key at or before the edge is popped) must be exactly
    those :func:`rescan_ready` finds, in the same order.  The load/store
    queue wakes and performs in one step, so its ready list must stay in
    program order through every insertion, and hold after each load/store
    edge exactly what :func:`rescan_lsq` finds then.  *after_edge*, if
    given, is called with the domain name and edge after an integer or FP
    edge's work.
    """
    for attribute, queue, domain in (
        ("_integer_cycle", processor.int_queue, Domain.INTEGER.value),
        ("_floating_point_cycle", processor.fp_queue, Domain.FLOATING_POINT.value),
    ):

        def checked(now, cycle=getattr(processor, attribute), queue=queue, domain=domain):
            assert queue.wake_up(now) == rescan_ready(processor, domain, now)
            cycle(now)
            if after_edge is not None:
                after_edge(domain, now)

        setattr(processor, attribute, checked)

    # Every entry passes through the heap before a load/store edge wakes
    # it, so reading the heap before each edge sees every arrival time.
    arrivals: dict[int, int] = {}
    lsq = processor.lsq
    lsq.ready = ProgramOrderList(lsq.ready)

    def checked_load_store(now, cycle=processor._load_store_cycle):
        for arrival, seq, _ in lsq.heap:
            arrivals[seq] = arrival
        cycle(now)
        assert lsq.ready == rescan_lsq(processor, arrivals, now)

    processor._load_store_cycle = checked_load_store


@given(
    workload=st.sampled_from(("gcc", "em3d", "mst", "art", "apsi", "adpcm_encode")),
    spec_kind=st.sampled_from(tuple(SpecKind)),
    phase_adaptive=st.booleans(),
    jitter=st.sampled_from((0.0, 0.05)),
    sync_window=st.sampled_from((0.0, 0.1, 0.3, 0.6)),
    skip=st.booleans(),
    cache_ports=st.sampled_from((1, 2)),
)
@settings(max_examples=10, deadline=10_000)
def test_generated_jobs_wake_up_matches_a_rescan(
    workload, spec_kind, phase_adaptive, jitter, sync_window, skip, cache_ports
):
    # With one cache port, arrived entries wait longer, so an older memory
    # op often arrives while a younger one is still ready.
    adaptive = spec_kind in (SpecKind.ADAPTIVE, SpecKind.BASE_ADAPTIVE)
    job = SimulationJob(
        profile=get_workload(workload),
        spec_kind=spec_kind,
        spec_overrides={"parameters": ArchitecturalParameters(cache_ports=cache_ports)},
        phase_adaptive=phase_adaptive and adaptive,
        window=500,
        warmup=300,
        jitter_fraction=jitter if adaptive else 0.0,
        sync_window_fraction=sync_window,
    )
    processor = MCDProcessor(
        job.build_spec(),
        control=job.resolved_control(),
        phase_adaptive=job.phase_adaptive,
        seed=job.seed,
        jitter_fraction=job.jitter_fraction,
        sync_window_fraction=job.resolved_sync_window_fraction(),
        horizon_scheduling=skip,
    )
    check_wake_up(processor)
    result = processor.run(
        make_trace(job.profile, seed=job.trace_seed),
        max_instructions=job.resolved_window(),
        warmup_instructions=job.resolved_warmup(),
        workload_name=job.profile.name,
    )
    assert result.committed_instructions >= job.resolved_window()


@pytest.mark.parametrize(
    "changed, ratio",
    [(Domain.INTEGER, 2.0), (Domain.LOAD_STORE, 0.5)],
    ids=["faster-consumer", "slower-producer"],
)
def test_period_change_rekeys_waiting_entries(changed, ratio):
    """Entries keyed under the old windows wait on load/store producers when a
    reconfiguration changes a period; each issues at the first integer edge
    at which the rescan, under the new windows, finds it ready."""
    processor = drained_processor()
    integer = Domain.INTEGER.value
    load_store = Domain.LOAD_STORE.value
    int_clock = processor.clocks[Domain.INTEGER]
    period = int_clock.period_ps
    start = int_clock.next_edge
    event_time = start + 3 * period + period // 2
    # Fetch stays stalled, so only the hand-built entries run.
    processor.frontend.stall_until = start + 1_000 * period
    old_window = processor._wake_window_table[integer][load_store]
    # Wake times under the old window on, and half-way between, integer
    # edges of the old period; at most a few entries wake per edge, so the
    # integer ALUs never hold one back.
    completions = [
        start + cycles * period - old_window + shift
        for cycles in range(4, 10)
        for shift in (0, period // 2)
    ]
    consumers = []
    for index, completion in enumerate(completions):
        producer = DynInst()
        producer.exec_domain = load_store
        producer.completion_time = completion
        consumer = DynInst()
        consumer.seq = index
        consumer.producers = (producer,)
        enter_int_queue(processor, consumer, start)
        consumers.append(consumer)
    clock = processor.clocks[changed]
    new_frequency = clock.frequency_ghz * ratio
    processor._pending_events.append((event_time, lambda: clock.set_frequency(new_frequency)))

    first_ready: dict[int, int] = {}
    issued_at: dict[int, int] = {}
    int_edges: list[int] = []

    def after_edge(domain: str, now: int) -> None:
        if domain != integer:
            return
        int_edges.append(now)
        for inst in consumers:
            if inst.completion_time is not None:
                issued_at.setdefault(inst.seq, now)

    check_wake_up(processor, after_edge)
    cycle = processor._integer_cycle

    def integer_cycle(now):
        for inst in rescan_ready(processor, integer, now):
            first_ready.setdefault(inst.seq, now)
        cycle(now)

    processor._integer_cycle = integer_cycle
    walk_edges_before(processor, event_time + 12 * period)

    new_window = processor._wake_window_table[integer][load_store]
    assert new_window != old_window
    assert len(issued_at) == len(consumers)
    assert issued_at == first_ready
    # Some entry's ready edge moved with the window, so the old keys would
    # have issued it at another edge.
    moved = []
    for inst in consumers:
        old_wake = inst.producers[0].completion_time + old_window
        if next(edge for edge in int_edges if edge >= old_wake) != first_ready[inst.seq]:
            moved.append(inst.seq)
    assert moved


# ------------------------------------------------------------ deadlock


@pytest.mark.parametrize("skip", [True, False])
def test_deadlock_guard_fires_on_a_head_that_never_completes(monkeypatch, skip):
    monkeypatch.setattr(processor_module, "_DEADLOCK_LIMIT", 500)
    job = SimulationJob(profile=get_workload("gcc"), window=400, warmup=200)
    processor = MCDProcessor(job.build_spec(), horizon_scheduling=skip)
    # A ROB head no domain will ever execute: nothing behind it can commit.
    processor.rob.entries.append(DynInst())
    with pytest.raises(RuntimeError, match="500 main-loop iterations"):
        processor.run(
            make_trace(job.profile, seed=job.trace_seed),
            max_instructions=job.resolved_window(),
            warmup_instructions=job.resolved_warmup(),
        )
