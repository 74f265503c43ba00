"""Tests for the fetch engine / front end."""


from repro.core.configuration import base_adaptive_spec
from repro.core.processor import MCDProcessor
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass
from repro.pipeline.frontend import FrontEnd
from repro.timing.tables import ADAPTIVE_ICACHE_CONFIGS


def straight_line_trace(count, base_pc=0x40_0000):
    for index in range(count):
        instruction = Instruction(pc=base_pc + index * 4, op=OpClass.INT_ALU, dest="r8")
        instruction.seq = index
        yield instruction


def branchy_trace(count, taken_every=10, mispredictable=False):
    pc = 0x40_0000
    for index in range(count):
        if index % taken_every == taken_every - 1:
            instruction = Instruction(
                pc=pc, op=OpClass.BRANCH, taken=True, target=0x40_0000
            )
            pc = 0x40_0000
        else:
            instruction = Instruction(pc=pc, op=OpClass.INT_ALU, dest="r8")
            pc += 4
        instruction.seq = index
        yield instruction


def make_frontend(trace, warm_blocks=0, **kwargs):
    frontend = FrontEnd(trace, icache_config=ADAPTIVE_ICACHE_CONFIGS[0], **kwargs)
    frontend.icache.warm(0x40_0000 + block * 64 for block in range(warm_blocks))
    return frontend


PERIOD = 575  # ~1.74 GHz front end


def fetch(frontend, now):
    """One fetch cycle at *now*: the instructions it appended to the fetch queue."""
    count = frontend.fetch_cycle(now, PERIOD)
    entries = list(frontend.fetch_queue.entries)
    return entries[len(entries) - count :]


def driven_by_processor(frontend):
    """A processor whose front-end cycle drives *frontend*.  That cycle is
    where stalls are applied: it counts a stall cycle instead of fetching
    while ``waiting_branch`` is set or before ``stall_until``."""
    processor = MCDProcessor(base_adaptive_spec())
    processor.frontend = frontend
    return processor


def front_end_cycle(processor, now):
    """One front-end cycle of *processor* at *now*: the instructions it
    fetched (dispatch runs first, so they are the fetch queue's tail)."""
    frontend = processor.frontend
    cursor = frontend.cursor
    processor._front_end_cycle(now)
    entries = list(frontend.fetch_queue.entries)
    return entries[len(entries) - (frontend.cursor - cursor) :]


class TestFetch:
    def test_fetches_up_to_width(self):
        frontend = make_frontend(straight_line_trace(100), warm_blocks=4, fetch_width=8)
        fetched = fetch(frontend, 0)
        assert len(fetched) == 8

    def test_fetch_queue_capacity_limits_fetch(self):
        frontend = make_frontend(
            straight_line_trace(100), warm_blocks=4, fetch_queue_capacity=4
        )
        assert len(fetch(frontend, 0)) == 4
        assert len(fetch(frontend, PERIOD)) == 0

    def test_dispatch_ready_time_includes_decode(self):
        frontend = make_frontend(straight_line_trace(10), warm_blocks=2, decode_cycles=2)
        fetched = fetch(frontend, 1000)
        assert all(inst.dispatch_ready_time == 1000 + 2 * PERIOD for inst in fetched)

    def test_taken_branch_ends_fetch_cycle(self):
        frontend = make_frontend(branchy_trace(100, taken_every=4), warm_blocks=4)
        fetched = fetch(frontend, 0)
        assert fetched[-1].is_branch or len(fetched) == 8
        assert len(fetched) <= 4 + 1  # cannot fetch past the taken branch

    def test_trace_exhaustion(self):
        frontend = make_frontend(straight_line_trace(3), warm_blocks=1)
        frontend.fetch_cycle(0, PERIOD)
        assert frontend.trace_exhausted

    def test_icache_miss_stalls_fetch(self):
        calls = []

        def miss_handler(address, now):
            calls.append(address)
            return now + 50 * PERIOD

        frontend = make_frontend(straight_line_trace(64), icache_miss_handler=miss_handler)
        processor = driven_by_processor(frontend)
        first = fetch(frontend, 0)
        assert not first  # the very first block access misses the cold I-cache
        assert calls
        assert frontend.stall_until == 50 * PERIOD
        assert not front_end_cycle(processor, PERIOD)  # still stalled
        assert frontend.stats.fetch_stall_cycles == 1
        later = front_end_cycle(processor, 51 * PERIOD)
        assert later

    def test_warm_avoids_cold_miss(self):
        source = list(straight_line_trace(64))
        frontend = make_frontend(iter(source))
        frontend.icache.warm(instruction.pc for instruction in source[:32])
        fetched = fetch(frontend, 0)
        assert fetched
        assert frontend.stats.icache_misses == 0


class TestBranchHandling:
    def test_misprediction_stalls_until_resumed(self):
        # A single hard-to-predict branch: force a misprediction by training
        # the predictor the other way first.
        instructions = list(branchy_trace(40, taken_every=2))
        frontend = make_frontend(iter(instructions))
        processor = driven_by_processor(frontend)
        now = 0
        mispredicted = None
        for _ in range(40):
            fetched = front_end_cycle(processor, now)
            now += PERIOD
            for inst in fetched:
                if inst.mispredicted:
                    mispredicted = inst
                    break
            if mispredicted:
                break
        assert mispredicted is not None
        assert frontend.waiting_branch is mispredicted
        stalled = front_end_cycle(processor, now)
        assert stalled == []
        assert frontend.stats.branch_stall_cycles == 1
        frontend.resume_after_branch(mispredicted, now + 5 * PERIOD)
        assert frontend.waiting_branch is None
        assert front_end_cycle(processor, now + 6 * PERIOD)

    def test_resume_ignores_unrelated_branch(self):
        instructions = list(branchy_trace(40, taken_every=2))
        frontend = make_frontend(iter(instructions))
        other = instructions[0]
        fetched = fetch(frontend, 0)
        waiting = frontend.waiting_branch
        if waiting is not None:
            frontend.resume_after_branch(fetched[0], 10_000)
            assert frontend.waiting_branch is waiting

    def test_prediction_statistics_recorded(self):
        frontend = make_frontend(branchy_trace(200, taken_every=5))
        processor = driven_by_processor(frontend)
        now = 0
        for _ in range(200):
            front_end_cycle(processor, now)
            waiting = frontend.waiting_branch
            if waiting is not None:
                frontend.resume_after_branch(waiting, now + PERIOD)
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
