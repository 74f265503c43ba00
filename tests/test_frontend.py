"""Tests for fetch: the processor's fetch step over the front end's state."""


from repro.core.configuration import base_adaptive_spec
from repro.core.processor import MCDProcessor
from repro.isa.opcodes import FLAG_BRANCH, OpClass
from repro.pipeline.frontend import FrontEnd
from repro.timing.tables import ADAPTIVE_ICACHE_CONFIGS
from repro.workloads.generator import CompiledTrace

from tests.trace_rows import append_row

R8 = 8  # the dense id of integer register r8


def straight_line_trace(count, base_pc=0x40_0000):
    trace = CompiledTrace()
    for index in range(count):
        append_row(trace, base_pc + index * 4, OpClass.INT_ALU, dest=R8)
    return trace


def branchy_trace(count, taken_every=10):
    trace = CompiledTrace()
    pc = 0x40_0000
    for index in range(count):
        if index % taken_every == taken_every - 1:
            append_row(trace, pc, OpClass.BRANCH, taken=True, target=0x40_0000)
            pc = 0x40_0000
        else:
            append_row(trace, pc, OpClass.INT_ALU, dest=R8)
            pc += 4
    return trace


PERIOD = 575  # the base adaptive machine's front end, ~1.74 GHz


def fetching(trace, warm_blocks=0, **kwargs):
    """A base adaptive processor fetching *trace* through a front end built
    with *kwargs*, its I-cache warm for the first *warm_blocks* blocks."""
    processor = MCDProcessor(base_adaptive_spec())
    assert processor._fe_clock.period_ps == PERIOD
    frontend = FrontEnd(trace, icache_config=ADAPTIVE_ICACHE_CONFIGS[0], **kwargs)
    frontend.icache.warm(0x40_0000 + block * 64 for block in range(warm_blocks))
    processor.frontend = frontend
    return processor


def appended(frontend, cursor):
    """The fetch queue's tail fetched since the trace was at *cursor*."""
    entries = list(frontend.fetch_queue.entries)
    return entries[len(entries) - (frontend.cursor - cursor) :]


def fetch(processor, now):
    """One fetch step of *processor* at *now*: the instructions it appended
    to the fetch queue."""
    cursor = processor.frontend.cursor
    processor._fetch(now, processor._fe_clock)
    return appended(processor.frontend, cursor)


def front_end_cycle(processor, now):
    """One front-end cycle of *processor* at *now*: the instructions it
    fetched (dispatch runs first, so they are the fetch queue's tail).  That
    cycle is where stalls are applied: it counts a stall cycle instead of
    fetching while ``waiting_branch`` is set or before ``stall_until``."""
    cursor = processor.frontend.cursor
    processor._front_end_cycle(now)
    return appended(processor.frontend, cursor)


def is_branch(processor, inst):
    """Whether *inst*'s trace row is a branch."""
    return processor.frontend.trace.flags[inst.seq] & FLAG_BRANCH != 0


def resolve(processor, branch, now):
    """Resolve *branch* on the integer clock at *now*, as its issue does."""
    processor._schedule_branch_redirect(branch, now, processor._int_clock)


class TestFetch:
    def test_fetches_up_to_width(self):
        processor = fetching(straight_line_trace(100), warm_blocks=4, fetch_width=8)
        fetched = fetch(processor, 0)
        assert len(fetched) == 8

    def test_fetch_queue_capacity_limits_fetch(self):
        processor = fetching(straight_line_trace(100), warm_blocks=4, fetch_queue_capacity=4)
        assert len(fetch(processor, 0)) == 4
        assert len(fetch(processor, PERIOD)) == 0

    def test_dispatch_ready_time_includes_decode(self):
        processor = fetching(straight_line_trace(10), warm_blocks=2, decode_cycles=2)
        fetched = fetch(processor, 1000)
        assert all(inst.dispatch_ready_time == 1000 + 2 * PERIOD for inst in fetched)

    def test_taken_branch_ends_fetch_cycle(self):
        processor = fetching(branchy_trace(100, taken_every=4), warm_blocks=4)
        fetched = fetch(processor, 0)
        assert is_branch(processor, fetched[-1]) or len(fetched) == 8
        assert len(fetched) <= 4 + 1  # cannot fetch past the taken branch

    def test_trace_exhaustion(self):
        processor = fetching(straight_line_trace(3), warm_blocks=1)
        fetch(processor, 0)
        assert processor.frontend.trace_exhausted

    def test_icache_miss_stalls_fetch(self):
        processor = fetching(straight_line_trace(64))
        frontend = processor.frontend
        # The refill as an identical processor computes it: the request
        # crosses to the load/store clock, probes the unified L2 there (cold,
        # so main memory answers), and the block crosses back.
        twin = MCDProcessor(base_adaptive_spec())
        fe_clock, ls_clock = twin._fe_clock, twin._ls_clock
        request = twin.sync.transfer(0, fe_clock, ls_clock)
        refill = twin.hierarchy.access_l2(0x40_0000, request, ls_clock.period_ps)
        ready = twin.sync.transfer(refill, ls_clock, fe_clock)
        first = fetch(processor, 0)
        assert not first  # the very first block access misses the cold I-cache
        assert processor.hierarchy.stats.l2_misses == 1
        assert processor.memory.stats.accesses == 1
        assert processor.sync.stats.transfers == 2
        assert frontend.stall_until == ready
        assert not front_end_cycle(processor, PERIOD)  # still stalled
        assert frontend.stats.fetch_stall_cycles == 1
        assert not front_end_cycle(processor, ready - PERIOD)  # one edge before the block
        assert frontend.stats.fetch_stall_cycles == 2
        later = front_end_cycle(processor, ready)
        assert later

    def test_records_carry_their_row_index_as_seq(self):
        # A cold I-cache: the first row misses and is refetched after the
        # refill.  Every fourth row is a taken branch, which ends its cycle.
        processor = fetching(branchy_trace(24, taken_every=4))
        frontend = processor.frontend
        assert not fetch(processor, 0)
        assert frontend.stats.icache_misses == 1
        now = frontend.stall_until
        fetched = []
        for _ in range(200):
            fetched += front_end_cycle(processor, now)
            if frontend.trace_exhausted:
                break
            if frontend.waiting_branch is not None:
                resolve(processor, frontend.waiting_branch, now)
            now += PERIOD
        assert [inst.seq for inst in fetched] == list(range(24))
        assert sum(is_branch(processor, inst) for inst in fetched) == 6

    def test_warm_avoids_cold_miss(self):
        trace = straight_line_trace(64)
        processor = fetching(trace)
        processor.frontend.icache.warm(trace.pc[:32])
        fetched = fetch(processor, 0)
        assert fetched
        assert processor.frontend.stats.icache_misses == 0


class TestBranchHandling:
    def test_misprediction_stalls_until_resumed(self):
        # A single hard-to-predict branch: force a misprediction by training
        # the predictor the other way first.
        processor = fetching(branchy_trace(40, taken_every=2), warm_blocks=1)
        frontend = processor.frontend
        now = 0
        mispredicted = None
        for _ in range(40):
            fetched = front_end_cycle(processor, now)
            now += PERIOD
            for inst in fetched:
                if inst is frontend.waiting_branch:
                    mispredicted = inst
                    break
            if mispredicted:
                break
        assert mispredicted is not None
        assert is_branch(processor, mispredicted)
        assert frontend.waiting_branch is mispredicted
        stalled = front_end_cycle(processor, now)
        assert stalled == []
        assert frontend.stats.branch_stall_cycles == 1
        resolve(processor, mispredicted, now)
        assert frontend.waiting_branch is None
        assert frontend.stall_until > now  # the redirect penalty
        assert front_end_cycle(processor, frontend.stall_until)

    def test_resume_ignores_unrelated_branch(self):
        processor = fetching(branchy_trace(40, taken_every=2), warm_blocks=1)
        frontend = processor.frontend
        fetched = fetch(processor, 0)
        waiting = frontend.waiting_branch
        assert waiting is not None and fetched[0] is not waiting
        stall_until = frontend.stall_until
        resolve(processor, fetched[0], 10_000)
        assert frontend.waiting_branch is waiting
        assert frontend.stall_until == stall_until

    def test_prediction_statistics_recorded(self):
        processor = fetching(branchy_trace(200, taken_every=5), warm_blocks=1)
        frontend = processor.frontend
        now = 0
        for _ in range(200):
            front_end_cycle(processor, now)
            waiting = frontend.waiting_branch
            if waiting is not None:
                resolve(processor, waiting, now)
            now += PERIOD
        assert frontend.stats.branches > 0
        assert frontend.stats.mispredictions <= frontend.stats.branches


class TestConfigChanges:
    def test_apply_icache_config_repartitions(self):
        frontend = FrontEnd(
            straight_line_trace(10),
            icache_config=ADAPTIVE_ICACHE_CONFIGS[0],
            physical_geometry=ADAPTIVE_ICACHE_CONFIGS[-1].icache,
        )
        assert frontend.icache.a_ways == 1
        frontend.apply_icache_config(ADAPTIVE_ICACHE_CONFIGS[2], use_b_partition=True)
        assert frontend.icache.a_ways == 3
        frontend.apply_icache_config(ADAPTIVE_ICACHE_CONFIGS[3], use_b_partition=True)
        assert frontend.icache.b_ways == 0
