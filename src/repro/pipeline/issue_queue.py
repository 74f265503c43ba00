"""Resizable out-of-order issue queue with producer-driven wake-up.

The queue holds dispatched instructions until their source operands are ready
and a functional unit is available, then issues them oldest-first.  Capacity
is one of 16/32/48/64 entries and can be changed at run time by the queue
controller; shrinking never discards occupants — the new bound only applies
to subsequent dispatches, which models draining the tail of a real resizable
queue.

Wake-up is keyed by producer completion rather than rescanned every cycle.
An entry is scheduled once, when its last in-flight producer gets a
completion time (or at dispatch, when none is in flight): its key is the
first time at which it can issue, and it waits on a heap until the domain's
clock reaches that key.  Woken entries move to a ready list kept in program
order, from which the processor issues oldest-first.

The processor dispatches into the queue itself: it counts the entry in
``occupancy`` and, with no producer in flight, schedules it.  An entry's key
is never earlier than its ``queue_arrival_time``, the edge at which it has
crossed into this domain, so nothing else tracks the crossing: the entry
holds its slot from dispatch and cannot issue before it arrives.
"""

from __future__ import annotations

from bisect import insort
from collections import defaultdict
from heapq import heappop, heappush
from operator import attrgetter

from repro.clocks.time import Picoseconds
from repro.pipeline.dyninst import DynInst

_SEQ_KEY = attrgetter("seq")


class IssueQueue:
    """One domain's issue queue.

    Parameters
    ----------
    capacity:
        Entries that may hold slots at once.
    name:
        Label used in error messages and controller traces.
    windows:
        Synchronisation window, in picoseconds, added to a producer's
        completion time per producer domain name before a consumer in this
        queue's domain may see the result.  The processor owns the mapping
        and updates it in place when a domain's period changes; by default
        every window is 0 (no synchronisation).
    """

    def __init__(
        self,
        capacity: int,
        *,
        name: str = "issue-queue",
        windows: dict[str, int] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("issue queue capacity must be positive")
        self.name = name
        #: Entries that may hold slots at once; the processor's dispatch
        #: stops while ``occupancy`` is at it.
        self.capacity = capacity
        self._windows: dict[str, int] = windows if windows is not None else defaultdict(int)
        #: ``(key, seq, inst)`` of scheduled entries, earliest key first.
        self.heap: list[tuple[Picoseconds, int, DynInst]] = []
        #: Woken, not yet issued entries, in program (``seq``) order.
        self.ready: list[DynInst] = []
        #: Instructions holding queue slots: dispatched and not yet issued.
        self.occupancy = 0
        self.total_issued = 0
        self.occupancy_samples = 0
        self.occupancy_accumulator = 0
        # Energy-accounting activity (observation-only): the register-file
        # source reads the dispatched entries perform at issue.
        self.operand_reads = 0

    # ------------------------------------------------------------------ API

    @property
    def total_dispatched(self) -> int:
        """Queue writes so far: every dispatched entry, issued or not."""
        return self.total_issued + self.occupancy

    def set_capacity(self, capacity: int) -> None:
        """Resize the queue; occupants above the new bound drain naturally."""
        if capacity < 1:
            raise ValueError("issue queue capacity must be positive")
        self.capacity = capacity

    def schedule(self, inst: DynInst) -> None:
        """Key *inst* for issue once every producer has a completion time.

        The key is the later of the entry's arrival and its operands' wake
        time — each producer's completion plus the window from the
        producer's domain — so the entry can issue at the first edge of
        this domain at or after it.
        """
        wake = inst.queue_arrival_time
        windows = self._windows
        for producer in inst.producers:
            if producer is not None:
                completion = producer.completion_time + windows[producer.exec_domain]
                if completion > wake:
                    wake = completion
        heappush(self.heap, (wake, inst.seq, inst))

    def wake_up(self, now: Picoseconds) -> list[DynInst]:
        """Move every entry keyed at or before *now* to the ready list.

        Returns the ready list itself, oldest first; the processor removes
        the entries it issues.
        """
        heap = self.heap
        ready = self.ready
        while heap and heap[0][0] <= now:
            inst = heappop(heap)[2]
            if ready and ready[-1].seq > inst.seq:
                insort(ready, inst, key=_SEQ_KEY)
            else:
                ready.append(inst)
        return ready

    def rekey(self) -> None:
        """Re-schedule every scheduled or woken entry under the current windows."""
        entries = [entry for _, _, entry in self.heap]
        entries += self.ready
        self.heap.clear()
        self.ready.clear()
        for inst in entries:
            self.schedule(inst)

    @property
    def average_occupancy(self) -> float:
        """Mean occupancy across all sampled cycles."""
        if not self.occupancy_samples:
            return 0.0
        return self.occupancy_accumulator / self.occupancy_samples
