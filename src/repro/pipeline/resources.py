"""Execution resources: functional-unit pools and physical register files."""

from __future__ import annotations

from repro.clocks.time import Picoseconds
from repro.isa.opcodes import OpClass


class FunctionalUnitPool:
    """A pool of functional units within one execution domain.

    The pool distinguishes fully pipelined units (ALUs: a unit is busy for
    one issue slot per cycle regardless of operation latency) from
    unpipelined units (multiply/divide/sqrt: busy for the whole operation).

    Parameters
    ----------
    alus:
        Number of pipelined ALUs.
    complex_units:
        Number of unpipelined multiply/divide units.
    complex_ops:
        The operations routed to the complex units, in whatever form
        :meth:`try_reserve` is given them (the processor passes dense opcode
        ids, so the membership test hashes an int).
    """

    def __init__(
        self,
        *,
        alus: int,
        complex_units: int,
        complex_ops: frozenset[int] | frozenset[OpClass],
    ) -> None:
        if alus < 1 or complex_units < 0:
            raise ValueError("invalid functional unit counts")
        self._alus = alus
        self._complex_ops = complex_ops
        self._alu_slots_used = 0
        self._complex_busy_until: list[Picoseconds] = [0] * complex_units
        # Energy-accounting activity (observation-only).
        self.alu_ops = 0
        self.complex_ops_executed = 0

    def begin_cycle(self) -> None:
        """Reset per-cycle issue-slot accounting."""
        self._alu_slots_used = 0

    def try_reserve(self, op: int | OpClass, now: Picoseconds, latency_ps: Picoseconds) -> bool:
        """Reserve a unit for *op* this cycle; return False if none is free."""
        if op in self._complex_ops:
            for index, busy_until in enumerate(self._complex_busy_until):
                if busy_until <= now:
                    self._complex_busy_until[index] = now + latency_ps
                    self.complex_ops_executed += 1
                    return True
            return False
        if self._alu_slots_used >= self._alus:
            return False
        self._alu_slots_used += 1
        self.alu_ops += 1
        return True


class PhysicalRegisterFile:
    """Occupancy model of one physical register file.

    Registers are allocated at dispatch and freed at commit.  Only the count
    matters for timing, so the model is a counter with the logical registers
    permanently resident (as in the paper's 96-entry files backing 32
    logical registers): the processor raises ``allocated`` for each renamed
    destination while it is below ``total``, and lowers it at commit, never
    below ``logical``.
    """

    def __init__(self, total: int, logical: int = 32) -> None:
        if total <= logical:
            raise ValueError("physical register file must exceed the logical count")
        self.total = total
        self.logical = logical
        self.allocated = logical
        # Energy-accounting activity (observation-only): rename writes.
        self.allocations = 0
