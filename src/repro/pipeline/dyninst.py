"""Dynamic-instruction bookkeeping used throughout the pipeline."""

from __future__ import annotations

from repro.clocks.time import Picoseconds
from repro.isa.instruction import Instruction
from repro.isa.opcodes import IS_FLOATING_POINT, OPCLASSES, OPCODE_ID, OpClass
from repro.isa.registers import NO_REGISTER, register_index

_NOP_ID = OPCODE_ID[OpClass.NOP]


class DynInst:
    """One in-flight dynamic instruction.

    A :class:`DynInst` carries the timing state the pipeline needs — when it
    may dispatch, when it reaches its issue queue and the LSQ, when it
    completes, which domain produced its result, which in-flight producers
    its source operands depend on and which consumers wait on it — together
    with the decoded instruction fields themselves: program counter, dense
    opcode id, dense register ids (``NO_REGISTER`` when absent) and effective
    address.

    On the compiled-trace fast path the fields are populated directly from
    flat column reads and the instance is recycled through a free list once
    the machine drains, so no per-instruction objects are allocated at all;
    the legacy constructor form ``DynInst(instruction=...)`` decodes a trace
    ``Instruction`` instead and keeps a reference to it.

    Deliberately a plain ``__slots__`` class with *identity* equality: queue
    entries are unique in-flight objects, and LSQ release relies on a fast
    identity scan rather than field-by-field comparison.
    """

    __slots__ = (
        "instruction",
        "producers",
        "dispatch_ready_time",
        "queue_arrival_time",
        "lsq_arrival_time",
        "completion_time",
        "exec_domain",
        "mispredicted",
        "memory_issued",
        # Producer-driven wake-up (see IssueQueue.schedule): the entries
        # that wait on this one's result, and how many of this one's own
        # producers are still in flight.
        "consumers",
        "waits",
        # Decoded instruction fields (column reads on the fast path).
        "seq",
        "op_id",
        "is_branch",
        "is_memory_op",
        "is_store",
        "is_fp",
        "pc",
        "dest",
        "src0",
        "src1",
        "source_count",
        "address",
    )

    def __init__(self, instruction: Instruction | None = None) -> None:
        self.instruction = instruction
        #: Producers of each source operand that were still in flight at
        #: rename time (``None`` entries mean the operand was already
        #: architecturally ready).
        self.producers: tuple[DynInst | None, ...] = ()
        self.dispatch_ready_time: Picoseconds = 0
        self.queue_arrival_time: Picoseconds | None = None
        self.lsq_arrival_time: Picoseconds | None = None
        self.completion_time: Picoseconds | None = None
        #: Name of the domain whose clock produced ``completion_time``.
        self.exec_domain: str = "integer"
        self.mispredicted = False
        self.memory_issued = False
        #: Dispatched consumers waiting on this result; emptied once the
        #: completion time is set, so the two never refer to each other
        #: after the wake-up.
        self.consumers: list[DynInst] = []
        #: Producers still without a completion time, counted at dispatch.
        self.waits = 0
        if instruction is not None:
            self.seq = instruction.seq
            self.op_id = OPCODE_ID[instruction.op]
            self.is_branch = instruction.is_branch
            self.is_memory_op = instruction.is_memory_op
            self.is_store = instruction.is_store
            self.is_fp = IS_FLOATING_POINT[instruction.op]
            self.pc = instruction.pc
            dest = instruction.dest
            self.dest = NO_REGISTER if dest is None else register_index(dest)
            sources = instruction.sources
            count = len(sources)
            self.src0 = register_index(sources[0]) if count else NO_REGISTER
            self.src1 = register_index(sources[1]) if count > 1 else NO_REGISTER
            self.source_count = count
            self.address = instruction.address if instruction.address is not None else 0
        else:
            self.seq = -1
            self.op_id = _NOP_ID
            self.is_branch = False
            self.is_memory_op = False
            self.is_store = False
            self.is_fp = False
            self.pc = 0
            self.dest = NO_REGISTER
            self.src0 = NO_REGISTER
            self.src1 = NO_REGISTER
            self.source_count = 0
            self.address = 0

    @property
    def op(self) -> OpClass:
        """The operation class (decoded from ``op_id``)."""
        return OPCLASSES[self.op_id]

    @property
    def completed(self) -> bool:
        """True once the instruction has produced its result."""
        return self.completion_time is not None

    def describe(self) -> str:
        """Readable one-line rendering for debugging."""
        state = "completed" if self.completed else "in-flight"
        rendering = (
            self.instruction.describe()
            if self.instruction is not None
            else f"{self.op.value}@{self.pc:#x}"
        )
        return f"[{self.seq}] {rendering} ({state})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<DynInst {self.describe()}>"
