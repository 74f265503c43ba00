"""Hand-made traces for tests.

A :class:`~repro.workloads.generator.CompiledTrace` built without a
generator holds the rows its caller appends to its eight columns and ends at
the last one.  :func:`append_row` appends one row, and :func:`copy_rows`
copies the first rows of another trace.  Rows are numbered by their
position: fetch gives an instruction its row index as ``seq``.  Program
counters, addresses and targets are 32-bit.  Registers are dense ids:
integer register ``rN`` is ``N`` and floating-point register ``fN`` is
``32 + N`` (``repro.isa.registers.register_index``).
"""

from __future__ import annotations

from repro.isa.opcodes import FLAG_BRANCH, FLAG_TAKEN, OPCLASS_FLAGS, OPCODE_ID, OpClass
from repro.isa.registers import NO_REGISTER
from repro.workloads.generator import CompiledTrace

#: The eight columns of a compiled trace.
COLUMNS = ("pc", "op", "flags", "dest", "src0", "src1", "address", "target")


def append_row(
    trace: CompiledTrace,
    pc: int,
    op: OpClass,
    *,
    dest: int = NO_REGISTER,
    sources: tuple[int, ...] = (),
    address: int = 0,
    branch: bool = False,
    taken: bool = False,
    target: int = 0,
) -> None:
    """Append one row to *trace*.

    A ``BRANCH`` row is always a branch; *branch* flags a row of any other
    opclass as one too.  *taken* applies to branches only.
    """
    assert len(sources) <= 2, "a row has at most two sources"
    op_id = OPCODE_ID[op]
    flags = OPCLASS_FLAGS[op_id]
    if branch or op is OpClass.BRANCH:
        flags |= FLAG_BRANCH | (FLAG_TAKEN if taken else 0)
    src0, src1 = (*sources, NO_REGISTER, NO_REGISTER)[:2]
    trace.pc.append(pc)
    trace.op.append(op_id)
    trace.flags.append(flags)
    trace.dest.append(dest)
    trace.src0.append(src0)
    trace.src1.append(src1)
    trace.address.append(address)
    trace.target.append(target)


def copy_rows(source: CompiledTrace, count: int) -> CompiledTrace:
    """A trace that ends after the first *count* rows of *source*."""
    source.ensure(count)
    trace = CompiledTrace()
    for column in COLUMNS:
        getattr(trace, column).extend(getattr(source, column)[:count])
    return trace
