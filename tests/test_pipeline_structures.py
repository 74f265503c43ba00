"""Tests for the pipeline building blocks (queues, ROB, LSQ, resources)."""

import pytest

from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass
from repro.pipeline import (
    DynInst,
    FetchQueue,
    FunctionalUnitPool,
    IssueQueue,
    LoadStoreQueue,
    PhysicalRegisterFile,
    ReorderBuffer,
)


def make_inst(seq, op=OpClass.INT_ALU, dest="r8", sources=("r1",), address=None):
    instruction = Instruction(
        pc=0x1000 + seq * 4, op=op, dest=dest, sources=sources, address=address,
    )
    instruction.seq = seq
    return DynInst(instruction=instruction)


class TestIssueQueue:
    def test_capacity_enforced(self):
        queue = IssueQueue(capacity=2)
        queue.dispatch(make_inst(0), arrival_time=0)
        queue.dispatch(make_inst(1), arrival_time=0)
        assert not queue.has_space
        with pytest.raises(RuntimeError):
            queue.dispatch(make_inst(2), arrival_time=0)

    def test_arrivals_respect_time(self):
        queue = IssueQueue(capacity=4)
        queue.dispatch(make_inst(0), arrival_time=1000)
        queue.admit_arrivals(now=500)
        assert not queue.wake_up(500)
        queue.admit_arrivals(now=1000)
        assert len(queue.wake_up(1000)) == 1

    def test_ready_entries_oldest_first(self):
        queue = IssueQueue(capacity=8)
        for seq, completion in ((5, 100), (2, 300), (9, 200)):
            producer = make_inst(seq + 100)
            producer.completion_time = completion
            inst = make_inst(seq)
            inst.producers = (producer,)
            queue.dispatch(inst, arrival_time=0)
        queue.admit_arrivals(0)
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
        queue.dispatch(inst, arrival_time=0)
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
        queue.dispatch(inst, arrival_time=0)
        assert queue.wake_up(1040) == [inst]
        windows["load_store"] = 80
        queue.rekey()
        assert not queue.wake_up(1040)
        assert queue.wake_up(1080) == [inst]

    def test_resize_does_not_discard_occupants(self):
        queue = IssueQueue(capacity=4)
        for seq in range(4):
            queue.dispatch(make_inst(seq), arrival_time=0)
        queue.set_capacity(2)
        assert queue.occupancy == 4
        assert not queue.has_space

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            IssueQueue(capacity=0)


class TestReorderBuffer:
    def test_in_order_commit(self):
        rob = ReorderBuffer(capacity=8)
        first, second = make_inst(0), make_inst(1)
        rob.dispatch(first)
        rob.dispatch(second)
        assert rob.head is first
        assert rob.commit_head() is first
        assert rob.commit_head() is second
        assert rob.total_committed == 2

    def test_capacity(self):
        rob = ReorderBuffer(capacity=2)
        rob.dispatch(make_inst(0))
        rob.dispatch(make_inst(1))
        assert not rob.has_space
        with pytest.raises(RuntimeError):
            rob.dispatch(make_inst(2))

    def test_empty_head_is_none(self):
        assert ReorderBuffer().head is None


class TestLoadStoreQueue:
    def test_allocation_and_release(self):
        lsq = LoadStoreQueue(capacity=2)
        load = make_inst(0, op=OpClass.LOAD, address=0x100)
        lsq.allocate(load)
        assert lsq.occupancy == 1
        lsq.release(load)
        assert lsq.occupancy == 0

    def test_pending_older_store_blocks_same_dword(self):
        lsq = LoadStoreQueue()
        store = make_inst(0, op=OpClass.STORE, dest=None, sources=("r1", "r2"), address=0x100)
        load = make_inst(1, op=OpClass.LOAD, address=0x104)  # same double word
        lsq.allocate(store)
        lsq.allocate(load)
        assert lsq.pending_older_store(load) is store

    def test_unrelated_store_does_not_block(self):
        lsq = LoadStoreQueue()
        store = make_inst(0, op=OpClass.STORE, dest=None, sources=("r1", "r2"), address=0x200)
        load = make_inst(1, op=OpClass.LOAD, address=0x100)
        lsq.allocate(store)
        lsq.allocate(load)
        assert lsq.pending_older_store(load) is None

    def test_forwarding_requires_completed_store(self):
        lsq = LoadStoreQueue()
        store = make_inst(0, op=OpClass.STORE, dest=None, sources=("r1", "r2"), address=0x100)
        load = make_inst(2, op=OpClass.LOAD, address=0x100)
        lsq.allocate(store)
        lsq.allocate(load)
        assert lsq.forwardable_store(load, now=100) is None
        store.completion_time = 50
        assert lsq.forwardable_store(load, now=100) is store

    def test_younger_store_never_forwards(self):
        lsq = LoadStoreQueue()
        load = make_inst(1, op=OpClass.LOAD, address=0x100)
        younger_store = make_inst(5, op=OpClass.STORE, dest=None, sources=("r1", "r2"), address=0x100)
        younger_store.completion_time = 0
        lsq.allocate(load)
        lsq.allocate(younger_store)
        assert lsq.forwardable_store(load, now=100) is None

    def test_capacity(self):
        lsq = LoadStoreQueue(capacity=1)
        lsq.allocate(make_inst(0, op=OpClass.LOAD, address=0))
        with pytest.raises(RuntimeError):
            lsq.allocate(make_inst(1, op=OpClass.LOAD, address=64))


class TestFunctionalUnits:
    def test_alu_slots_reset_each_cycle(self):
        pool = FunctionalUnitPool(alus=2, complex_units=1, complex_ops=frozenset({OpClass.INT_MULT}))
        pool.begin_cycle(0)
        assert pool.try_reserve(OpClass.INT_ALU, 0, 1000)
        assert pool.try_reserve(OpClass.INT_ALU, 0, 1000)
        assert not pool.try_reserve(OpClass.INT_ALU, 0, 1000)
        pool.begin_cycle(1000)
        assert pool.try_reserve(OpClass.INT_ALU, 1000, 1000)

    def test_complex_unit_busy_for_latency(self):
        pool = FunctionalUnitPool(alus=1, complex_units=1, complex_ops=frozenset({OpClass.INT_MULT}))
        pool.begin_cycle(0)
        assert pool.try_reserve(OpClass.INT_MULT, 0, 3000)
        pool.begin_cycle(1000)
        assert not pool.try_reserve(OpClass.INT_MULT, 1000, 3000)
        pool.begin_cycle(3000)
        assert pool.try_reserve(OpClass.INT_MULT, 3000, 3000)


class TestPhysicalRegisterFile:
    def test_allocate_release(self):
        regs = PhysicalRegisterFile(total=40, logical=32)
        assert regs.free == 8
        regs.allocate(8)
        assert not regs.can_allocate()
        regs.release(3)
        assert regs.free == 3

    def test_overflow_and_underflow(self):
        regs = PhysicalRegisterFile(total=34, logical=32)
        regs.allocate(2)
        with pytest.raises(RuntimeError):
            regs.allocate()
        regs.release(2)
        with pytest.raises(RuntimeError):
            regs.release()

    def test_must_exceed_logical(self):
        with pytest.raises(ValueError):
            PhysicalRegisterFile(total=32, logical=32)


class TestFetchQueue:
    def test_fifo_order(self):
        queue = FetchQueue(capacity=4)
        first, second = make_inst(0), make_inst(1)
        queue.push(first)
        queue.push(second)
        assert queue.peek() is first
        assert queue.pop() is first
        assert queue.pop() is second

    def test_capacity(self):
        queue = FetchQueue(capacity=1)
        queue.push(make_inst(0))
        assert not queue.has_space
        with pytest.raises(RuntimeError):
            queue.push(make_inst(1))
