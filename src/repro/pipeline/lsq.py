"""Load/store queue.

Memory operations reach the load/store domain after their address has been
generated in the integer domain.  The LSQ holds them until the data cache can
be accessed.  Loads may bypass earlier stores except when an earlier store to
the same double word has not performed yet, in which case the load is held.
A held load takes its value by forwarding (one load/store-domain cycle) only
while an older store to the same double word that has already performed is
also in the queue; a load released when the pending store performs makes an
ordinary cache access.  This models perfect memory disambiguation, which is
the common SimpleScalar-style idealisation.

Arrival drives the access, as producer completion drives issue in the issue
queues: an entry waits on a heap keyed by its arrival time from address
generation on, and moves to a ready list kept in program order once the
load/store clock reaches that time.  The load/store unit performs ready
entries oldest first; a load held by an older pending store stays ready.
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
    allocations: int = 0


class LoadStoreQueue:
    """Occupancy and ordering model of the load/store queue.

    The processor appends a memory operation to ``entries`` at dispatch,
    while fewer than ``capacity`` hold slots, and removes it from the head
    at commit.  At address generation it pushes the entry onto ``heap``
    keyed by its arrival in the load/store domain; each load/store cycle
    moves the arrived entries to ``ready`` and removes from it the entries
    whose access it performs.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("load/store queue capacity must be positive")
        self.capacity = capacity
        #: Program-ordered memory operations currently occupying slots.
        self.entries: list[DynInst] = []
        #: ``(arrival, seq, inst)`` of entries whose address is generated
        #: and which have not arrived yet, earliest arrival first.
        self.heap: list[tuple[Picoseconds, int, DynInst]] = []
        #: Arrived entries whose access is not performed, in program order.
        self.ready: list[DynInst] = []
        self.stats = LSQStats()

    def pending_older_store(self, load: DynInst) -> DynInst | None:
        """Return an older, not-yet-performed store to the same double word."""
        load_dword = load.address & _DWORD_MASK
        for entry in self.entries:
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
        for entry in self.entries:
            if entry.seq >= load.seq:
                break
            if not entry.is_store:
                continue
            if (entry.address & _DWORD_MASK) != load_dword:
                continue
            if entry.completed and (entry.completion_time or 0) <= now:
                match = entry
        return match
