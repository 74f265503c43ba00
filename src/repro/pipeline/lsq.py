"""Load/store queue.

Memory operations reach the load/store domain after their address has been
generated in the integer domain.  The LSQ holds them until the data cache can
be accessed.  Loads may bypass earlier stores except when an earlier store to
the same double-word is still pending, in which case the load waits and then
receives the value by forwarding (one load/store-domain cycle).  This models
perfect memory disambiguation, which is the common SimpleScalar-style
idealisation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clocks.time import Picoseconds
from repro.pipeline.dyninst import DynInst

_DWORD_MASK = ~0x7


@dataclass(slots=True)
class LSQStats:
    """Aggregate load/store-queue statistics."""

    loads_forwarded: int = 0
    loads_performed: int = 0
    stores_performed: int = 0
    allocations: int = 0


class LoadStoreQueue:
    """Occupancy and ordering model of the load/store queue."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("load/store queue capacity must be positive")
        self._capacity = capacity
        # Program-ordered list of memory operations currently occupying slots.
        self._entries: list[DynInst] = []
        self.stats = LSQStats()
        # Occupants whose cache access has not been issued yet.  Maintained
        # by allocate/release here and by the processor, which dispatches,
        # issues and commits memory operations inline; lets the load/store
        # cycle (and horizon scheduling) skip edges with nothing to issue
        # without scanning the queue.
        self.unissued = 0

    # ------------------------------------------------------------------ API

    @property
    def occupancy(self) -> int:
        """Memory operations currently holding slots."""
        return len(self._entries)

    @property
    def has_space(self) -> bool:
        """True when another memory operation can be allocated."""
        return len(self._entries) < self._capacity

    def allocate(self, inst: DynInst) -> None:
        """Reserve a slot at dispatch time (program order is preserved)."""
        if not self.has_space:
            raise RuntimeError("allocation into a full load/store queue")
        self._entries.append(inst)
        self.stats.allocations += 1
        self.unissued += 1

    def release(self, inst: DynInst) -> None:
        """Free the slot at commit time."""
        try:
            self._entries.remove(inst)
        except ValueError:
            return
        if not inst.memory_issued:
            self.unissued -= 1

    def pending_older_store(self, load: DynInst) -> DynInst | None:
        """Return an older, not-yet-performed store to the same double word."""
        load_dword = load.address & _DWORD_MASK
        for entry in self._entries:
            if entry.seq >= load.seq:
                break
            if not entry.is_store or entry.completed:
                continue
            if (entry.address & _DWORD_MASK) == load_dword:
                return entry
        return None

    def forwardable_store(self, load: DynInst, now: Picoseconds) -> DynInst | None:
        """Return an older, completed store to the same double word, if any."""
        load_dword = load.address & _DWORD_MASK
        match: DynInst | None = None
        for entry in self._entries:
            if entry.seq >= load.seq:
                break
            if not entry.is_store:
                continue
            if (entry.address & _DWORD_MASK) != load_dword:
                continue
            if entry.completed and (entry.completion_time or 0) <= now:
                match = entry
        return match

    def reset(self) -> None:
        """Empty the queue (used between runs)."""
        self._entries.clear()
        self.stats = LSQStats()
        self.unissued = 0
