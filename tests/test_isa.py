"""Tests for the instruction-set abstractions."""

import pytest

from repro.isa import EXECUTION_LATENCY, NUM_FP_REGS, NUM_INT_REGS, OpClass, register_index
from repro.isa.opcodes import (
    FLAG_FP,
    FLAG_LOAD,
    FLAG_MEMORY,
    FLAG_STORE,
    OPCLASS_FLAGS,
    OPCODE_ID,
)
from repro.isa.registers import TOTAL_LOGICAL_REGS

FP_CLASSES = {OpClass.FP_ALU, OpClass.FP_MULT, OpClass.FP_DIV, OpClass.FP_SQRT}


def flags(op: OpClass) -> int:
    return OPCLASS_FLAGS[OPCODE_ID[op]]


class TestRegisters:
    def test_register_index_dense_and_disjoint(self):
        int_indices = {register_index(f"r{i}") for i in range(NUM_INT_REGS)}
        fp_indices = {register_index(f"f{i}") for i in range(NUM_FP_REGS)}
        assert int_indices == set(range(NUM_INT_REGS))
        assert fp_indices == set(range(NUM_INT_REGS, TOTAL_LOGICAL_REGS))
        assert not int_indices & fp_indices

    def test_register_index_rejects_malformed_names(self):
        for bad in ("x3", "r", "r99", "f-1", ""):
            with pytest.raises(ValueError):
                register_index(bad)


class TestOpClasses:
    """The opclass rules the simulator relies on, as its flag bits state them:
    the FP flag picks the floating-point queue and everything else issues
    from the integer queue."""

    def test_every_class_has_a_latency(self):
        for op in OpClass:
            assert EXECUTION_LATENCY[op] >= 1

    def test_memory_classification(self):
        assert {op for op in OpClass if flags(op) & FLAG_MEMORY} == {OpClass.LOAD, OpClass.STORE}
        assert {op for op in OpClass if flags(op) & FLAG_LOAD} == {OpClass.LOAD}
        assert {op for op in OpClass if flags(op) & FLAG_STORE} == {OpClass.STORE}

    def test_integer_and_fp_are_disjoint(self):
        assert {op for op in OpClass if flags(op) & FLAG_FP} == FP_CLASSES

    def test_queue_routing_covers_everything(self):
        integer = {op for op in OpClass if not flags(op) & FLAG_FP}
        assert integer | FP_CLASSES == set(OpClass)
        assert OpClass.BRANCH in integer and OpClass.NOP in integer

    def test_memory_ops_use_integer_queue(self):
        assert not flags(OpClass.LOAD) & FLAG_FP
        assert not flags(OpClass.STORE) & FLAG_FP

    def test_complex_ops_slower_than_alu(self):
        assert EXECUTION_LATENCY[OpClass.INT_MULT] > EXECUTION_LATENCY[OpClass.INT_ALU]
        assert EXECUTION_LATENCY[OpClass.FP_DIV] > EXECUTION_LATENCY[OpClass.FP_ALU]
