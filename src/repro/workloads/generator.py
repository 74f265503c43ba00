"""Deterministic synthetic trace generator and the compiled trace format.

The generator turns a :class:`~repro.workloads.characteristics.WorkloadProfile`
into a dynamic instruction trace, written row by row straight into the flat
columns of a :class:`CompiledTrace`.  The static program is a two-level loop
nest over ``code_footprint_kb`` of code: an inner window of
``inner_window_kb`` repeats ``inner_iterations`` times before sliding onward,
wrapping at the end of the program.  Basic blocks end in loop-control
branches; additional data-dependent conditional branches appear inside blocks
with per-static-PC biases so the branch predictor sees a stable population of
easy and hard branches.  Data addresses mix a hot region with a larger cold
footprint, and register dependences follow a geometric producer-distance
distribution that sets the workload's exploitable ILP.

Everything is driven by ``random.Random(seed)``, so the same profile and seed
always produce bit-identical traces.  ``tests/test_trace_columns.py`` pins a
sha256 of every column for every shipped profile.
"""

from __future__ import annotations

import random
import zlib
from array import array
from math import log
from typing import Any, Mapping

from repro.isa.opcodes import FLAG_BRANCH, FLAG_TAKEN, OPCLASS_FLAGS, OPCODE_ID, OpClass
from repro.isa.registers import NO_REGISTER, register_index
from repro.workloads.characteristics import PHASE_OVERRIDABLE_FIELDS, WorkloadProfile

#: Base virtual address of the code segment.
CODE_BASE = 0x0040_0000
#: Base virtual address of the data segment.  The hot region starts here and
#: the cold (full-footprint) region follows it contiguously, so the two do
#: not alias pathologically onto the same cache sets the way two
#: power-of-two-aligned regions would.
HOT_DATA_BASE = 0x1000_0000
#: Bytes per instruction.
INSTRUCTION_BYTES = 4
#: The compiled trace's address columns hold 32-bit values, so the code and
#: data segments must end at or below this address.
ADDRESS_LIMIT = 1 << 32

# Registers r1/f1 hold long-ready values ("far" dependences); destinations
# rotate through a pool of scratch registers, and a source reaches back at
# most _RECENT_DESTS allocations into that rotation.  r2 is the loop-carried
# accumulator (induction variable) that gives every workload a serial chain
# whose height scales with 1/mean_dependence_distance.
_FAR_INT_REG = register_index("r1")
_FAR_FP_REG = register_index("f1")
_ACCUMULATOR_REG = register_index("r2")
_INT_DEST_POOL = tuple(register_index(f"r{i}") for i in range(8, 28))
_FP_DEST_POOL = tuple(register_index(f"f{i}") for i in range(8, 28))
_POOL_SIZE = len(_INT_DEST_POOL)
_RECENT_DESTS = 96

_INT_ALU, _INT_MULT, _INT_DIV, _FP_ALU, _FP_MULT, _FP_DIV, _LOAD, _STORE, _BRANCH = (
    OPCODE_ID[op]
    for op in (
        OpClass.INT_ALU,
        OpClass.INT_MULT,
        OpClass.INT_DIV,
        OpClass.FP_ALU,
        OpClass.FP_MULT,
        OpClass.FP_DIV,
        OpClass.LOAD,
        OpClass.STORE,
        OpClass.BRANCH,
    )
)
_NOT_TAKEN_FLAGS = OPCLASS_FLAGS[_BRANCH] | FLAG_BRANCH
_TAKEN_FLAGS = _NOT_TAKEN_FLAGS | FLAG_TAKEN


class CompiledTrace:
    """Flat structure-of-arrays form of one instruction stream: the one
    trace type the simulator reads.

    Each instruction is one row across eight parallel ``array`` columns,
    17 bytes a row: program counter, dense opcode id, opclass/branch flag
    bitmask, register ids (destination and up to two sources,
    ``NO_REGISTER`` when absent — the source ids carry the stream's
    dependence structure), effective memory address (0 when none) and
    branch target (0 when none).  The program counter, address and target
    columns hold 32-bit addresses; the generator rejects a profile whose
    code or data would reach 2**32.  Rows are numbered by their position,
    so no column holds a sequence number.  Fetch and warm-up read the
    columns by index, so the simulation never builds a per-instruction
    object.

    Built with a :class:`SyntheticTraceGenerator`, the trace has the
    generator write rows into the columns as :meth:`ensure` asks for them,
    and never ends.  Built without one, it holds the rows its caller
    appended to the eight columns and ends at the last one.
    """

    __slots__ = (
        "pc",
        "op",
        "flags",
        "dest",
        "src0",
        "src1",
        "address",
        "target",
        "_generator",
    )

    def __init__(self, generator: SyntheticTraceGenerator | None = None) -> None:
        self.pc = array("I")
        self.op = array("B")
        self.flags = array("B")
        self.dest = array("b")
        self.src0 = array("b")
        self.src1 = array("b")
        self.address = array("I")
        self.target = array("I")
        self._generator = generator

    @property
    def length(self) -> int:
        """Number of rows in the columns so far."""
        return len(self.pc)

    @property
    def finite(self) -> bool:
        """True when the trace ends at its last row (it has no generator)."""
        return self._generator is None

    def ensure(self, count: int) -> int:
        """Write rows up to *count*; return the number of rows available."""
        length = len(self.pc)
        if length < count and self._generator is not None:
            self._generator._write_rows(self, count - length)
            return count
        return length


def _resolve_phase(
    profile: WorkloadProfile, overrides: Mapping[str, Any], *, context: str
) -> tuple:
    """One phase's dynamic knobs, in the order :meth:`_write_rows` unpacks them.

    Raises :class:`ValueError` naming *context* when the phase's data
    region would reach :data:`ADDRESS_LIMIT`.
    """
    values = {name: getattr(profile, name) for name in PHASE_OVERRIDABLE_FIELDS}
    values.update(overrides)
    hot_bytes = int(values["hot_data_kb"] * 1024)
    # The cold region covers the remainder of the data footprint and is
    # laid out directly after the hot region.
    cold_bytes = max(64, int(values["data_footprint_kb"] * 1024) - hot_bytes)
    data_end = HOT_DATA_BASE + hot_bytes + cold_bytes
    if data_end > ADDRESS_LIMIT:
        raise ValueError(
            f"{context}: data_footprint_kb ({values['data_footprint_kb']!r}) ends the "
            f"data segment at {data_end:#x}, beyond the trace's 32-bit addresses"
        )
    return (
        values["load_fraction"],
        values["load_fraction"] + values["store_fraction"],
        values["fp_fraction"],
        values["int_mult_fraction"],
        values["fp_mult_fraction"],
        values["mean_dependence_distance"],
        1.0 / values["mean_dependence_distance"],
        values["far_dependence_fraction"],
        values["hot_data_fraction"],
        values["sequential_fraction"],
        hot_bytes,
        cold_bytes,
    )


class SyntheticTraceGenerator:
    """Generate a deterministic dynamic instruction trace from a profile.

    Parameters
    ----------
    profile:
        The workload description.
    seed:
        Seed for the trace's pseudo-random choices.  The static program
        (branch positions and biases) and the dynamic stream are both
        functions of ``(profile, seed)``.

    ``CompiledTrace(generator)`` is the trace the simulator reads: the
    generator writes the stream's next rows into its columns whenever
    :meth:`CompiledTrace.ensure` asks for more.  A profile, or a phase
    override, whose code or data segment would reach :data:`ADDRESS_LIMIT`
    raises :class:`ValueError` here, before any row is written.
    """

    def __init__(self, profile: WorkloadProfile, *, seed: int = 1234) -> None:
        self.profile = profile
        self.seed = seed
        # crc32, not hash(): str hashing is salted per process
        # (PYTHONHASHSEED), which would make the "deterministic" trace differ
        # between interpreter invocations — breaking golden-value tests and
        # any persistent result cache.
        self._rng = random.Random((seed * 1_000_003) ^ zlib.crc32(profile.name.encode()))

        # --- static program layout -------------------------------------
        self._block_size = profile.block_size
        static_instructions = max(
            2 * self._block_size, int(profile.code_footprint_kb * 1024 // INSTRUCTION_BYTES)
        )
        self._n_blocks = max(2, static_instructions // self._block_size)
        code_end = CODE_BASE + self._n_blocks * self._block_size * INSTRUCTION_BYTES
        if code_end > ADDRESS_LIMIT:
            raise ValueError(
                f"profile {profile.name!r}: code_footprint_kb ({profile.code_footprint_kb!r})"
                f" ends the code segment at {code_end:#x}, beyond the trace's 32-bit addresses"
            )
        window_blocks = int(
            profile.inner_window_kb * 1024 // (INSTRUCTION_BYTES * self._block_size)
        )
        self._window_blocks = max(1, min(window_blocks, self._n_blocks))

        # Static conditional branches inside blocks: position -> bias.
        static_rng = random.Random(seed ^ 0x5EED_BA5E)
        self._static_branch_bias: dict[int, float] = {}
        for block in range(self._n_blocks):
            for offset in range(self._block_size - 1):
                if static_rng.random() < profile.cond_branch_density:
                    slot = block * self._block_size + offset
                    if static_rng.random() < profile.predictable_branch_fraction:
                        # Strongly biased branches stand in for the correlated,
                        # easily learned branches of real codes.
                        bias = static_rng.uniform(0.96, 0.995)
                        if static_rng.random() < 0.5:
                            bias = 1.0 - bias
                    else:
                        bias = profile.hard_branch_bias
                    self._static_branch_bias[slot] = bias

        # --- dynamic state ----------------------------------------------
        context = f"profile {profile.name!r}"
        self._phase_params = [
            _resolve_phase(profile, phase.overrides, context=f"{context}, phase {index}")
            for index, phase in enumerate(profile.phases)
        ] or [_resolve_phase(profile, {}, context=context)]
        # (phase index, rows left in the phase, window start block, loop
        # iteration, block in window, instruction in block, int and fp
        # destination cursors, hot and cold sequential pointers, instructions
        # since the accumulator update)
        first_phase = profile.phases[0].length if profile.phases else 0
        self._state = (0, first_phase, 0, 0, 0, 0, 0, 0, 0, 0, 0)

    def _write_rows(self, trace: CompiledTrace, count: int) -> None:
        """Append the stream's next *count* rows to *trace*'s columns."""
        rand = self._rng.random
        randrange = self._rng.randrange
        phases = self.profile.phases
        phase_params = self._phase_params
        bias_of = self._static_branch_bias.get
        block_size = self._block_size
        closing_offset = block_size - 1
        n_blocks = self._n_blocks
        window_blocks = self._window_blocks
        last_iteration = self.profile.inner_iterations - 1
        (
            phase_index,
            phase_remaining,
            window_start,
            iteration,
            block_in_window,
            instr_in_block,
            int_cursor,
            fp_cursor,
            hot_pointer,
            cold_pointer,
            since_accumulator,
        ) = self._state

        def pick(pool: tuple[int, ...], cursor: int, far: int) -> int:
            """A source: the far register or a recent destination from *pool*."""
            if not cursor or rand() < far_fraction:
                return far
            # self._rng.expovariate(rate) inlined: CPython's formula on the
            # same draw, so every trace pin holds.
            distance = 1 + int(-log(1.0 - rand()) / rate)
            if distance > cursor or distance > _RECENT_DESTS:
                return far
            return pool[(cursor - distance) % _POOL_SIZE]

        def data_address() -> int:
            """A hot- or cold-region address, sequential or random."""
            nonlocal hot_pointer, cold_pointer
            if rand() < hot_fraction:
                if rand() < sequential_fraction:
                    hot_pointer = (hot_pointer + 8) % hot_bytes
                    return HOT_DATA_BASE + hot_pointer
                return HOT_DATA_BASE + randrange(0, hot_bytes, 8)
            if rand() < sequential_fraction:
                cold_pointer = (cold_pointer + 64) % cold_bytes
                return HOT_DATA_BASE + hot_bytes + cold_pointer
            return HOT_DATA_BASE + hot_bytes + randrange(0, cold_bytes, 8)

        pc_append = trace.pc.append
        op_append = trace.op.append
        flags_append = trace.flags.append
        dest_append = trace.dest.append
        src0_append = trace.src0.append
        src1_append = trace.src1.append
        address_append = trace.address.append
        target_append = trace.target.append
        while count:
            # One run of rows within a single phase.
            if phases:
                if not phase_remaining:
                    phase_index = (phase_index + 1) % len(phases)
                    phase_remaining = phases[phase_index].length
                run = min(count, phase_remaining)
                phase_remaining -= run
            else:
                run = count
            count -= run
            (
                load_fraction,
                memory_fraction,
                fp_fraction,
                int_mult_fraction,
                fp_mult_fraction,
                mean_distance,
                rate,
                far_fraction,
                hot_fraction,
                sequential_fraction,
                hot_bytes,
                cold_bytes,
            ) = phase_params[phase_index]
            for _ in range(run):
                block = (window_start + block_in_window) % n_blocks
                slot = block * block_size + instr_in_block
                pc = CODE_BASE + slot * INSTRUCTION_BYTES
                dest = src1 = NO_REGISTER
                address = target = 0
                if instr_in_block == closing_offset:
                    # The block-closing loop branch: on to the next block,
                    # back to the window start, or on to the next window.
                    if block_in_window == window_blocks - 1:
                        block_in_window = 0
                        if iteration < last_iteration:
                            iteration += 1
                        else:
                            iteration = 0
                            window_start = (window_start + window_blocks) % n_blocks
                        next_block = window_start
                    else:
                        block_in_window += 1
                        next_block = (window_start + block_in_window) % n_blocks
                    instr_in_block = 0
                    op = _BRANCH
                    fallthrough = next_block == (block + 1) % n_blocks
                    flags = _NOT_TAKEN_FLAGS if fallthrough else _TAKEN_FLAGS
                    src0 = pick(_INT_DEST_POOL, int_cursor, _FAR_INT_REG)
                    target = CODE_BASE + next_block * block_size * INSTRUCTION_BYTES
                elif (bias := bias_of(slot)) is not None:
                    # A taken in-block branch skips ahead to the closing one.
                    op = _BRANCH
                    target = CODE_BASE + (block * block_size + closing_offset) * INSTRUCTION_BYTES
                    if rand() < bias:
                        instr_in_block = closing_offset
                        flags = _TAKEN_FLAGS
                    else:
                        instr_in_block += 1
                        flags = _NOT_TAKEN_FLAGS
                    src0 = pick(_INT_DEST_POOL, int_cursor, _FAR_INT_REG)
                else:
                    instr_in_block += 1
                    since_accumulator += 1
                    if since_accumulator >= mean_distance:
                        # The loop-carried accumulator update, every
                        # ~mean_dependence_distance instructions: the serial
                        # chain that caps the exploitable ILP at that distance.
                        since_accumulator = 0
                        op = _INT_ALU
                        src0 = dest = _ACCUMULATOR_REG
                    else:
                        roll = rand()
                        if roll < load_fraction:
                            op = _LOAD
                            if rand() < fp_fraction:
                                dest = _FP_DEST_POOL[fp_cursor % _POOL_SIZE]
                                fp_cursor += 1
                            else:
                                dest = _INT_DEST_POOL[int_cursor % _POOL_SIZE]
                                int_cursor += 1
                            src0 = pick(_INT_DEST_POOL, int_cursor, _FAR_INT_REG)
                            address = data_address()
                        elif roll < memory_fraction:
                            op = _STORE
                            if rand() < fp_fraction:
                                src0 = pick(_FP_DEST_POOL, fp_cursor, _FAR_FP_REG)
                            else:
                                src0 = pick(_INT_DEST_POOL, int_cursor, _FAR_INT_REG)
                            src1 = pick(_INT_DEST_POOL, int_cursor, _FAR_INT_REG)
                            address = data_address()
                        elif rand() < fp_fraction:
                            if rand() < fp_mult_fraction:
                                op = _FP_MULT if rand() > 0.08 else _FP_DIV
                            else:
                                op = _FP_ALU
                            src0 = pick(_FP_DEST_POOL, fp_cursor, _FAR_FP_REG)
                            src1 = pick(_FP_DEST_POOL, fp_cursor, _FAR_FP_REG)
                            dest = _FP_DEST_POOL[fp_cursor % _POOL_SIZE]
                            fp_cursor += 1
                        else:
                            if rand() < int_mult_fraction:
                                op = _INT_MULT if rand() > 0.1 else _INT_DIV
                            else:
                                op = _INT_ALU
                            src0 = pick(_INT_DEST_POOL, int_cursor, _FAR_INT_REG)
                            src1 = pick(_INT_DEST_POOL, int_cursor, _FAR_INT_REG)
                            dest = _INT_DEST_POOL[int_cursor % _POOL_SIZE]
                            int_cursor += 1
                    flags = OPCLASS_FLAGS[op]
                pc_append(pc)
                op_append(op)
                flags_append(flags)
                dest_append(dest)
                src0_append(src0)
                src1_append(src1)
                address_append(address)
                target_append(target)
        self._state = (
            phase_index,
            phase_remaining,
            window_start,
            iteration,
            block_in_window,
            instr_in_block,
            int_cursor,
            fp_cursor,
            hot_pointer,
            cold_pointer,
            since_accumulator,
        )
