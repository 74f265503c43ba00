"""Reorder buffer: in-order retirement of out-of-order execution."""

from __future__ import annotations

from collections import deque

from repro.pipeline.dyninst import DynInst


class ReorderBuffer:
    """A FIFO of in-flight instructions retired in program order."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("reorder buffer capacity must be positive")
        self._capacity = capacity
        self._entries: deque[DynInst] = deque()
        self.total_committed = 0
        self.total_dispatched = 0

    @property
    def has_space(self) -> bool:
        """True if another instruction may be dispatched."""
        return len(self._entries) < self._capacity

    @property
    def head(self) -> DynInst | None:
        """Oldest in-flight instruction, or ``None`` when empty."""
        return self._entries[0] if self._entries else None

    def dispatch(self, inst: DynInst) -> None:
        """Append a newly dispatched instruction."""
        if not self.has_space:
            raise RuntimeError("dispatch into a full reorder buffer")
        self._entries.append(inst)
        self.total_dispatched += 1

    def commit_head(self) -> DynInst:
        """Retire and return the oldest instruction."""
        inst = self._entries.popleft()
        self.total_committed += 1
        return inst

    def reset(self) -> None:
        """Drop all in-flight state (used between runs)."""
        self._entries.clear()
