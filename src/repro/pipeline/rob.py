"""Reorder buffer: in-order retirement of out-of-order execution."""

from __future__ import annotations

from collections import deque

from repro.pipeline.dyninst import DynInst


class ReorderBuffer:
    """A FIFO of in-flight instructions retired in program order.

    The processor appends at dispatch and pops the head at commit, and
    counts both; dispatch stops while ``entries`` holds ``capacity``
    instructions.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("reorder buffer capacity must be positive")
        self.capacity = capacity
        self.entries: deque[DynInst] = deque()
        self.total_committed = 0
        self.total_dispatched = 0
