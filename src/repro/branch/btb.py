"""Branch target buffer.

Direction prediction is the performance-critical part in the paper's machine
(targets are known once a branch is decoded), but a BTB is included for
completeness: a taken branch whose target misses in the BTB costs one extra
front-end bubble in the fetch model.
"""

from __future__ import annotations


class BranchTargetBuffer:
    """Direct-mapped (optionally set-associative) branch target buffer."""

    def __init__(self, entries: int = 4096, associativity: int = 4) -> None:
        if entries <= 0 or entries % associativity:
            raise ValueError("entries must be a positive multiple of associativity")
        self._sets = entries // associativity
        self._assoc = associativity
        #: Each set's ``(pc, target)`` entries in MRU order.
        self._table: list[list[tuple[int, int]]] = [[] for _ in range(self._sets)]

    def lookup(self, pc: int) -> int | None:
        """Return the predicted target for *pc*, or ``None`` on a BTB miss."""
        entry_set = self._table[(pc >> 2) % self._sets]
        for position, (tag, target) in enumerate(entry_set):
            if tag == pc:
                if position:
                    del entry_set[position]
                    entry_set.insert(0, (tag, target))
                return target
        return None

    def update(self, pc: int, target: int) -> None:
        """Install or refresh the target for the branch at *pc*."""
        entry_set = self._table[(pc >> 2) % self._sets]
        for position, (tag, _) in enumerate(entry_set):
            if tag == pc:
                del entry_set[position]
                break
        entry_set.insert(0, (pc, target))
        if len(entry_set) > self._assoc:
            entry_set.pop()
