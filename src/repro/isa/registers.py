"""Logical register namespace.

The machine has 32 logical integer registers (``r0``..``r31``) and 32 logical
floating-point registers (``f0``..``f31``), mirroring the Alpha-like target of
the paper.  Traces and the pipeline carry dense register indices (integer
registers first, then floating point), as the rename stage and the
ILP-tracking hardware model use them (Section 3.2 of the paper tracks
timestamps for 32 + 32 logical registers); :func:`register_index` converts a
name such as ``"r4"`` or ``"f17"`` to its index.
"""

from __future__ import annotations

#: Number of logical integer registers.
NUM_INT_REGS = 32
#: Number of logical floating-point registers.
NUM_FP_REGS = 32


def register_index(name: str) -> int:
    """Return the dense index of *name* within the combined register space.

    Integer registers map to ``0..31`` and floating-point registers map to
    ``32..63``.  This is the index used by the rename map and by the
    ILP-tracking timestamp array.
    """
    try:
        number = int(name[1:])
    except (ValueError, IndexError) as exc:
        raise ValueError(f"malformed register name: {name!r}") from exc
    if name.startswith("r"):
        if not 0 <= number < NUM_INT_REGS:
            raise ValueError(f"integer register out of range: {name!r}")
        return number
    if name.startswith("f"):
        if not 0 <= number < NUM_FP_REGS:
            raise ValueError(f"floating-point register out of range: {name!r}")
        return NUM_INT_REGS + number
    raise ValueError(f"unknown register class: {name!r}")


#: Total number of logical registers tracked by rename / ILP hardware.
TOTAL_LOGICAL_REGS = NUM_INT_REGS + NUM_FP_REGS

#: Sentinel index for "no register" in the flat trace encoding (stores,
#: branches and nops have no destination; nops have no sources).
NO_REGISTER = -1

#: First index of the floating-point half of the combined register space.
FP_BASE_INDEX = NUM_INT_REGS
