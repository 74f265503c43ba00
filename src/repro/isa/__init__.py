"""Instruction-set level abstractions used by the timing pipeline.

The simulator is trace driven: the workload generator writes each dynamic
instruction as one row of a
:class:`~repro.workloads.generator.CompiledTrace`'s flat columns, carrying
everything the timing model needs (a dense opcode id and its flag bits,
dense register ids for the dependences, memory address, branch outcome and
target).  There is no functional emulation of a real ISA; the register
namespace mirrors the Alpha-like machine of the paper (32 logical integer
and 32 logical floating-point registers).
"""

from repro.isa.opcodes import OpClass, EXECUTION_LATENCY
from repro.isa.registers import NUM_INT_REGS, NUM_FP_REGS, register_index

__all__ = [
    "OpClass",
    "EXECUTION_LATENCY",
    "NUM_INT_REGS",
    "NUM_FP_REGS",
    "register_index",
]
