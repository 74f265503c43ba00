"""Tests for the pipeline building blocks (queues, ROB, LSQ, resources).

The processor is the one implementation of dispatch and commit, so the
capacity and ordering rules of the ROB, LSQ, register files and issue queues
are tested through ``MCDProcessor._dispatch`` and ``_commit``, on a machine
whose fetch queue each test fills by hand.  Wake-up, re-keying and store
forwarding are methods of the structures themselves.
"""

import pytest

from repro.core import (
    ArchitecturalParameters,
    MCDProcessor,
    base_adaptive_spec,
    best_overall_synchronous_spec,
)
from repro.core.domains import Domain
from repro.isa.opcodes import (
    FLAG_FP,
    FLAG_MEMORY,
    FLAG_STORE,
    OPCLASS_FLAGS,
    OPCODE_ID,
    OpClass,
)
from repro.isa.registers import NO_REGISTER, register_index
from repro.pipeline import (
    DynInst,
    FrontEnd,
    FunctionalUnitPool,
    IssueQueue,
    LoadStoreQueue,
    PhysicalRegisterFile,
)
from repro.workloads.generator import CompiledTrace

from tests.trace_rows import append_row


def make_inst(seq, op=OpClass.INT_ALU, dest="r8", sources=("r1",), address=0):
    """A fetched instruction: the fields fetch fills from the trace columns."""
    inst = DynInst()
    inst.seq = seq
    inst.op_id = OPCODE_ID[op]
    flags = OPCLASS_FLAGS[inst.op_id]
    inst.is_memory_op = flags & FLAG_MEMORY != 0
    inst.is_store = flags & FLAG_STORE != 0
    inst.is_fp = flags & FLAG_FP != 0
    inst.dest = NO_REGISTER if dest is None else register_index(dest)
    registers = [register_index(name) for name in sources] + [NO_REGISTER, NO_REGISTER]
    inst.src0, inst.src1 = registers[:2]
    inst.source_count = len(sources)
    inst.address = address
    return inst


def machine(**parameters):
    """A synchronous machine with an empty front end; *parameters* override
    Table 5's sizes."""
    spec = best_overall_synchronous_spec(parameters=ArchitecturalParameters(**parameters))
    processor = MCDProcessor(spec)
    processor.frontend = FrontEnd(CompiledTrace(), icache_config=spec.icache)
    return processor


def dispatch(processor, *insts, now=0):
    """Queue *insts* for dispatch, decoded and ready, and run one dispatch."""
    processor.frontend.fetch_queue.entries.extend(insts)
    processor._dispatch(now, processor.clocks[Domain.FRONT_END])


def commit(processor, now):
    processor._commit(now, processor.clocks[Domain.FRONT_END])


def schedule(queue, inst, arrival=0):
    """Key *inst*, arriving at *arrival*, as dispatch does when none of its
    producers is still in flight."""
    inst.queue_arrival_time = arrival
    queue.schedule(inst)


class TestIssueQueue:
    def test_capacity_enforced(self):
        processor = machine()
        queue = processor.int_queue
        queue.set_capacity(2)
        insts = [make_inst(seq) for seq in range(3)]
        dispatch(processor, *insts)
        assert queue.occupancy == 2
        assert queue.total_dispatched == 2
        assert list(processor.frontend.fetch_queue.entries) == insts[2:]

    def test_arrivals_respect_time(self):
        # Dispatch keys an entry with no producer in flight at its arrival in
        # the queue, the integer clock's next edge; it cannot issue before.
        processor = MCDProcessor(base_adaptive_spec())
        processor.frontend = FrontEnd(CompiledTrace(), icache_config=processor.spec.icache)
        int_clock = processor.clocks[Domain.INTEGER]
        int_clock.advance()
        arrival = int_clock.next_edge
        inst = make_inst(0)
        dispatch(processor, inst, now=0)
        queue = processor.int_queue
        assert inst.queue_arrival_time == arrival > 0
        assert queue.heap == [(arrival, 0, inst)]
        processor._integer_cycle(arrival - 1)
        assert queue.total_issued == 0
        processor._integer_cycle(arrival)
        assert queue.total_issued == 1

    def test_ready_entries_oldest_first(self):
        queue = IssueQueue(capacity=8)
        for seq, completion in ((5, 100), (2, 300), (9, 200)):
            producer = make_inst(seq + 100)
            producer.completion_time = completion
            inst = make_inst(seq)
            inst.producers = (producer,)
            schedule(queue, inst)
        # Woken in key order (5, 9, 2), listed oldest first.
        ready = queue.wake_up(300)
        assert [inst.seq for inst in ready] == [2, 5, 9]

    def test_wake_up_waits_for_the_producers_window(self):
        queue = IssueQueue(capacity=4, windows={"load_store": 40, "integer": 0})
        producer = make_inst(0)
        producer.completion_time = 1000
        producer.exec_domain = "load_store"
        inst = make_inst(1)
        inst.producers = (producer, None)
        schedule(queue, inst)
        assert not queue.wake_up(1039)
        assert queue.wake_up(1040) == [inst]

    def test_rekey_applies_new_windows(self):
        windows = {"load_store": 40}
        queue = IssueQueue(capacity=4, windows=windows)
        producer = make_inst(0)
        producer.completion_time = 1000
        producer.exec_domain = "load_store"
        inst = make_inst(1)
        inst.producers = (producer,)
        schedule(queue, inst)
        assert queue.wake_up(1040) == [inst]
        windows["load_store"] = 80
        queue.rekey()
        assert not queue.wake_up(1040)
        assert queue.wake_up(1080) == [inst]

    def test_resize_does_not_discard_occupants(self):
        processor = machine()
        queue = processor.int_queue
        insts = [make_inst(seq) for seq in range(5)]
        dispatch(processor, *insts[:4])
        queue.set_capacity(2)
        assert queue.occupancy == 4
        assert processor._dispatch_blocked(insts[4])

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            IssueQueue(capacity=0)


class TestReorderBuffer:
    def test_in_order_commit(self):
        processor = machine()
        rob = processor.rob
        first, second = make_inst(0), make_inst(1, dest="r9")
        dispatch(processor, first, second)
        second.completion_time = 0
        commit(processor, now=1000)
        # The completed second instruction waits behind the first.
        assert list(rob.entries) == [first, second]
        first.completion_time = 500
        commit(processor, now=1000)
        assert not rob.entries
        assert rob.total_committed == 2

    def test_capacity(self):
        processor = machine(reorder_buffer_entries=2)
        insts = [make_inst(seq) for seq in range(3)]
        dispatch(processor, *insts)
        assert list(processor.rob.entries) == insts[:2]
        assert processor.rob.total_dispatched == 2
        assert list(processor.frontend.fetch_queue.entries) == insts[2:]


class TestLoadStoreQueue:
    def test_allocation_and_release(self):
        processor = machine()
        lsq = processor.lsq
        load = make_inst(0, op=OpClass.LOAD, address=0x100)
        dispatch(processor, load)
        assert lsq.entries == [load]
        assert lsq.stats.allocations == 1
        assert not lsq.heap and not lsq.ready
        processor._integer_cycle(0)  # address generation
        ((arrival, seq, queued),) = lsq.heap
        assert (seq, queued) == (0, load)
        assert not lsq.ready
        processor._load_store_cycle(arrival)
        assert load.completion_time is not None
        assert not lsq.heap and not lsq.ready
        commit(processor, now=load.completion_time)
        assert not lsq.entries
        assert processor.rob.total_committed == 1

    def test_commit_requires_the_issued_head(self):
        processor = machine()
        load = make_inst(0, op=OpClass.LOAD, address=0x100)
        dispatch(processor, load)
        # Completed without its access having issued.
        load.completion_time = 0
        with pytest.raises(RuntimeError, match="load/store queue's head"):
            commit(processor, now=0)

    def test_commit_requires_the_issued_head_on_a_reused_record(self):
        # With a one-entry ROB, fetch reuses a committed record once two
        # have committed: here a load that did perform its access.
        processor = machine(reorder_buffer_entries=1)
        loads = [make_inst(seq, op=OpClass.LOAD, address=0x100 + 64 * seq) for seq in range(2)]
        for load in loads:
            dispatch(processor, load)
            processor._integer_cycle(0)  # address generation
            ((arrival, _, _),) = processor.lsq.heap
            processor._load_store_cycle(arrival)
            commit(processor, now=load.completion_time)
        trace = CompiledTrace()
        append_row(trace, 0x40_0000, OpClass.LOAD, dest=8, sources=(1,), address=0x300)
        processor.frontend = FrontEnd(trace, icache_config=processor.spec.icache)
        processor.frontend.icache.warm([0x40_0000])
        fe_clock = processor.clocks[Domain.FRONT_END]
        processor._fetch(0, fe_clock)
        (reused,) = processor.frontend.fetch_queue.entries
        assert reused is loads[0]
        processor._dispatch(reused.dispatch_ready_time, fe_clock)
        assert processor.lsq.entries == [reused]
        # Completed without its access having issued.
        reused.completion_time = reused.dispatch_ready_time
        with pytest.raises(RuntimeError, match="load/store queue's head"):
            commit(processor, now=reused.completion_time)

    def test_pending_older_store_blocks_same_dword(self):
        lsq = LoadStoreQueue()
        store = make_inst(0, op=OpClass.STORE, dest=None, sources=("r1", "r2"), address=0x100)
        load = make_inst(1, op=OpClass.LOAD, address=0x104)  # same double word
        lsq.entries += [store, load]
        assert lsq.pending_older_store(load) is store

    def test_unrelated_store_does_not_block(self):
        lsq = LoadStoreQueue()
        store = make_inst(0, op=OpClass.STORE, dest=None, sources=("r1", "r2"), address=0x200)
        load = make_inst(1, op=OpClass.LOAD, address=0x100)
        lsq.entries += [store, load]
        assert lsq.pending_older_store(load) is None

    def test_forwarding_requires_completed_store(self):
        lsq = LoadStoreQueue()
        store = make_inst(0, op=OpClass.STORE, dest=None, sources=("r1", "r2"), address=0x100)
        load = make_inst(2, op=OpClass.LOAD, address=0x100)
        lsq.entries += [store, load]
        assert lsq.forwardable_store(load, now=100) is None
        store.completion_time = 50
        assert lsq.forwardable_store(load, now=100) is store

    def test_younger_store_never_forwards(self):
        lsq = LoadStoreQueue()
        load = make_inst(1, op=OpClass.LOAD, address=0x100)
        younger_store = make_inst(5, op=OpClass.STORE, dest=None, sources=("r1", "r2"), address=0x100)
        younger_store.completion_time = 0
        lsq.entries += [load, younger_store]
        assert lsq.forwardable_store(load, now=100) is None

    def test_capacity(self):
        processor = machine(load_store_queue_entries=1)
        loads = [make_inst(seq, op=OpClass.LOAD, address=64 * seq) for seq in range(2)]
        dispatch(processor, *loads)
        assert processor.lsq.entries == loads[:1]
        assert list(processor.frontend.fetch_queue.entries) == loads[1:]


class TestFunctionalUnits:
    def test_alu_slots_reset_each_cycle(self):
        pool = FunctionalUnitPool(alus=2, complex_units=1, complex_ops=frozenset({OpClass.INT_MULT}))
        pool.begin_cycle()
        assert pool.try_reserve(OpClass.INT_ALU, 0, 1000)
        assert pool.try_reserve(OpClass.INT_ALU, 0, 1000)
        assert not pool.try_reserve(OpClass.INT_ALU, 0, 1000)
        pool.begin_cycle()
        assert pool.try_reserve(OpClass.INT_ALU, 1000, 1000)

    def test_complex_unit_busy_for_latency(self):
        pool = FunctionalUnitPool(alus=1, complex_units=1, complex_ops=frozenset({OpClass.INT_MULT}))
        pool.begin_cycle()
        assert pool.try_reserve(OpClass.INT_MULT, 0, 3000)
        pool.begin_cycle()
        assert not pool.try_reserve(OpClass.INT_MULT, 1000, 3000)
        pool.begin_cycle()
        assert pool.try_reserve(OpClass.INT_MULT, 3000, 3000)


class TestPhysicalRegisterFile:
    def test_allocate_release(self):
        processor = machine()
        regs = processor.int_regs
        inst = make_inst(0)
        dispatch(processor, inst)
        assert regs.allocated == regs.logical + 1
        assert regs.allocations == 1
        inst.completion_time = 0
        commit(processor, now=0)
        assert regs.allocated == regs.logical

    def test_overflow_and_underflow(self):
        processor = machine(physical_int_registers=33)
        insts = [make_inst(seq) for seq in range(2)]
        dispatch(processor, *insts)
        # One free register: the second destination waits for it.
        assert list(processor.rob.entries) == insts[:1]
        # A destination that commits without having been renamed.
        processor = machine()
        unrenamed = make_inst(0)
        unrenamed.completion_time = 0
        processor.rob.entries.append(unrenamed)
        with pytest.raises(RuntimeError, match="underflow"):
            commit(processor, now=0)

    def test_must_exceed_logical(self):
        with pytest.raises(ValueError):
            PhysicalRegisterFile(total=32, logical=32)


class TestFetchQueue:
    def test_fifo_order(self):
        processor = machine()
        insts = [make_inst(seq, sources=()) for seq in range(10)]
        dispatch(processor, *insts)
        # Oldest first, up to the decode width.
        assert list(processor.rob.entries) == insts[:8]
        assert list(processor.frontend.fetch_queue.entries) == insts[8:]
