"""Operation classes and execution latencies.

The paper models an Alpha 21264-like machine (Table 5).  The timing pipeline
only needs to distinguish operation *classes* -- which functional unit an
instruction occupies, for how many cycles, and which issue queue it enters --
so the ISA is reduced to the classes below.

Latencies are given in cycles of the *executing* domain (integer domain for
integer operations, floating-point domain for FP operations, load/store domain
for the cache-access portion of memory operations).
"""

from __future__ import annotations

import enum


class OpClass(enum.Enum):
    """Classes of dynamic instructions recognised by the timing model."""

    INT_ALU = "int_alu"
    INT_MULT = "int_mult"
    INT_DIV = "int_div"
    FP_ALU = "fp_alu"
    FP_MULT = "fp_mult"
    FP_DIV = "fp_div"
    FP_SQRT = "fp_sqrt"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    NOP = "nop"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OpClass.{self.name}"


#: Execution latency, in cycles of the executing domain, for each operation
#: class.  Memory operations additionally pay the data-cache access latency in
#: the load/store domain; the value here is the address-generation latency in
#: the integer domain.
EXECUTION_LATENCY: dict[OpClass, int] = {
    OpClass.INT_ALU: 1,
    OpClass.INT_MULT: 3,
    OpClass.INT_DIV: 20,
    OpClass.FP_ALU: 2,
    OpClass.FP_MULT: 4,
    OpClass.FP_DIV: 12,
    OpClass.FP_SQRT: 24,
    OpClass.LOAD: 1,
    OpClass.STORE: 1,
    OpClass.BRANCH: 1,
    OpClass.NOP: 1,
}

_FP_CLASSES = frozenset(
    {OpClass.FP_ALU, OpClass.FP_MULT, OpClass.FP_DIV, OpClass.FP_SQRT}
)

_MEMORY_CLASSES = frozenset({OpClass.LOAD, OpClass.STORE})

# ---------------------------------------------------------------- flat encoding
#
# The compiled trace (:class:`repro.workloads.generator.CompiledTrace`) stores
# instruction streams as flat array columns.  Opcodes are encoded as dense
# ids, and the per-opclass predicates (memory access, load, store, floating
# point) are folded into one flag bitmask per instruction so the pipeline
# decodes a dynamic instruction with two integer reads.  An opclass that is
# not floating point issues from the integer queue: loads and stores
# generate their effective address in the integer domain, as in the MCD
# model.

#: Dense id -> OpClass decode table (declaration order).
OPCLASSES: tuple[OpClass, ...] = tuple(OpClass)
#: OpClass -> dense id encode table.
OPCODE_ID: dict[OpClass, int] = {op: index for index, op in enumerate(OPCLASSES)}

#: Per-instruction flag bits.  ``FLAG_BRANCH``/``FLAG_TAKEN`` are dynamic
#: (a trace row may be flagged a branch regardless of opclass, and the
#: outcome is per instance); the rest derive from the opclass alone.
FLAG_BRANCH = 0x01
FLAG_TAKEN = 0x02
FLAG_MEMORY = 0x04
FLAG_LOAD = 0x08
FLAG_STORE = 0x10
FLAG_FP = 0x20

#: Static flag bits of each opcode id (everything except branch/taken).
OPCLASS_FLAGS: tuple[int, ...] = tuple(
    (FLAG_MEMORY if op in _MEMORY_CLASSES else 0)
    | (FLAG_LOAD if op is OpClass.LOAD else 0)
    | (FLAG_STORE if op is OpClass.STORE else 0)
    | (FLAG_FP if op in _FP_CLASSES else 0)
    for op in OPCLASSES
)
