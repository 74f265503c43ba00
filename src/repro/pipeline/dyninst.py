"""Dynamic-instruction bookkeeping used throughout the pipeline."""

from __future__ import annotations

from repro.clocks.time import Picoseconds
from repro.isa.opcodes import OPCLASSES, OPCODE_ID, OpClass
from repro.isa.registers import NO_REGISTER

_NOP_ID = OPCODE_ID[OpClass.NOP]


class DynInst:
    """One in-flight dynamic instruction.

    A :class:`DynInst` carries the timing state the pipeline needs — when it
    may dispatch, when it reaches its issue queue, when it completes, which
    domain produced its result, which in-flight producers its source
    operands depend on and which consumers wait on it — together with the
    decoded instruction fields themselves: dense opcode id, dense register
    ids (``NO_REGISTER`` when absent) and effective address.

    The processor's fetch is the only producer of records: it fills the
    decoded fields from the compiled trace's columns and sets ``seq`` to the
    instruction's row index in the trace (program order: the queues'
    tie-break and the LSQ's age test), and the rest of the processor writes
    the timing state as the instruction moves through dispatch, issue and
    commit.  The constructor builds a blank record (a NOP with no
    registers).  Fetch reuses a committed record once ``rob.capacity``
    younger ones have committed, by which time every consumer that names it
    as a producer has issued; it then resets ``completion_time`` and
    ``exec_domain`` and overwrites every other field before the record is
    read again.

    Deliberately a plain ``__slots__`` class with *identity* equality: queue
    entries are unique in-flight objects, which commit and the rename map
    compare with ``is``.
    """

    __slots__ = (
        "producers",
        "dispatch_ready_time",
        "queue_arrival_time",
        "completion_time",
        "exec_domain",
        # Producer-driven wake-up (see IssueQueue.schedule): the entries
        # that wait on this one's result, and how many of this one's own
        # producers are still in flight.
        "consumers",
        "waits",
        # Decoded instruction fields, filled by fetch: ``seq`` is the row
        # index, the others come from the trace columns.
        "seq",
        "op_id",
        "is_memory_op",
        "is_store",
        "is_fp",
        "dest",
        "src0",
        "src1",
        "source_count",
        "address",
    )

    def __init__(self) -> None:
        #: Producers of each source operand that were still in flight at
        #: rename time (``None`` entries mean the operand was already
        #: architecturally ready).
        self.producers: tuple[DynInst | None, ...] = ()
        self.dispatch_ready_time: Picoseconds = 0
        self.queue_arrival_time: Picoseconds | None = None
        self.completion_time: Picoseconds | None = None
        #: Name of the domain whose clock produced ``completion_time``; only
        #: the load/store unit sets it to ``"load_store"``, so commit reads
        #: it to tell a performed memory access.
        self.exec_domain: str = "integer"
        #: Dispatched consumers waiting on this result; emptied once the
        #: completion time is set, so the two never refer to each other
        #: after the wake-up.
        self.consumers: list[DynInst] = []
        #: Producers still without a completion time, counted at dispatch.
        self.waits = 0
        self.seq = -1
        self.op_id = _NOP_ID
        self.is_memory_op = False
        self.is_store = False
        self.is_fp = False
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
        return f"[{self.seq}] {self.op.value} ({state})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<DynInst {self.describe()}>"
