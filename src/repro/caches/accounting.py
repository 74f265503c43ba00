"""The Accounting Cache (Dropsho et al.), used for all three caches.

An Accounting Cache is physically a full-size set-associative cache whose
ways are partitioned into an *A* partition (the first ``a_ways`` MRU
positions) and a *B* partition (the rest).  The A partition is accessed
first; on an A miss a second access probes the B partition and the blocks are
swapped (which the MRU ordering captures implicitly).  Because every set
keeps exact MRU ordering, simple per-MRU-position hit counters are enough to
reconstruct the number of A hits, B hits and misses that *any* partitioning
would have experienced over an interval — the property the phase-adaptive
controller exploits to avoid exploring configurations online.  With true-LRU
replacement the ordering has the *stack property*: an access hits in a cache
of ``a`` ways if and only if the block's MRU position is below ``a``.

Each set is a plain list of tags in MRU order, created on the set's first
touch, so building a cache costs one list however large the physical array
is.  Two entry points share one MRU rule (an absent block is installed at
MRU, evicting the LRU block of a full set; a present block moves to MRU),
and a property test holds them to equal set lists:

* :meth:`AccountingCache.access` performs one measured probe in one call:
  set index and tag, MRU update and LRU eviction, the interval counters,
  the probe-width histogram and the outcome.
* :meth:`AccountingCache.warm` applies the MRU update to a whole stream of
  addresses for warm-up, counts nothing, and returns the addresses
  ``access`` would have classed a miss, which is what the next level sees.

Two operating modes are supported:

* ``b_enabled=True`` — the adaptive MCD machine: an A miss falls back to the
  B partition before going to the next level.
* ``b_enabled=False`` — the fully synchronous machine and the whole-program
  adaptive machine: the cache holds only ``a_ways`` ways; an A miss goes
  straight to the next level.  (The stack property of LRU makes the full-size
  array an exact model of the truncated cache.)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable

from repro.timing.cacti import CacheGeometry


class AccessOutcome(enum.Enum):
    """Where an access was satisfied."""

    HIT_A = "hit_a"
    HIT_B = "hit_b"
    MISS = "miss"


_HIT_A = AccessOutcome.HIT_A
_HIT_B = AccessOutcome.HIT_B
_MISS = AccessOutcome.MISS


@dataclass(slots=True)
class CacheIntervalStats:
    """Counters accumulated over one adaptation interval."""

    ways: int
    accesses: int = 0
    misses: int = 0
    hits_by_mru_position: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.hits_by_mru_position:
            self.hits_by_mru_position = [0] * self.ways

    def hits_within(self, ways: int) -> int:
        """Hits that a cache restricted to the first *ways* MRU positions sees."""
        return sum(self.hits_by_mru_position[:ways])

    def hits_beyond(self, ways: int) -> int:
        """Hits at MRU positions *ways* and beyond (B-partition hits)."""
        return sum(self.hits_by_mru_position[ways:])

    def what_if(self, a_ways: int, *, b_enabled: bool) -> tuple[int, int, int]:
        """Return ``(a_hits, b_hits, misses)`` for a hypothetical configuration."""
        a_hits = self.hits_within(a_ways)
        if b_enabled:
            b_hits = self.hits_beyond(a_ways)
            misses = self.misses
        else:
            b_hits = 0
            misses = self.misses + self.hits_beyond(a_ways)
        return a_hits, b_hits, misses

    def reset(self) -> None:
        """Zero every counter (hardware reset at the end of each interval)."""
        self.accesses = 0
        self.misses = 0
        for index in range(len(self.hits_by_mru_position)):
            self.hits_by_mru_position[index] = 0


class AccountingCache:
    """Set-associative cache with A/B partitioning and what-if accounting.

    The cache is a timing/occupancy model only: it tracks which block
    addresses are resident, not their data.

    Parameters
    ----------
    geometry:
        Physical (maximum) organisation of the cache.
    a_ways:
        Initial width of the A partition.
    b_enabled:
        Whether the B partition is accessible (adaptive MCD mode) or skipped
        (synchronous / whole-program mode).
    name:
        Identifier used in statistics output.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        *,
        a_ways: int = 1,
        b_enabled: bool = True,
        name: str = "accounting-cache",
    ) -> None:
        self.name = name
        self.geometry = geometry
        self._ways = geometry.associativity
        self._block_bytes = geometry.block_bytes
        self._num_sets = geometry.num_sets
        #: Resident tags per set in MRU order; ``None`` until first touched.
        self._sets: list[list[int] | None] = [None] * self._num_sets
        self.set_a_ways(a_ways)
        self._b_enabled = b_enabled
        self.interval_stats = CacheIntervalStats(ways=self._ways)
        #: Probe-width histogram for energy accounting (observation-only):
        #: ways activated by a probe -> number of such probes.  An A access
        #: activates the current ``a_ways``; the fallback B probe activates
        #: the remaining ways of the physical array.
        self.access_profile: dict[int, int] = {}

    # ------------------------------------------------------------------ API

    @property
    def num_sets(self) -> int:
        """Number of sets in the cache."""
        return self._num_sets

    @property
    def a_ways(self) -> int:
        """Current width of the A partition."""
        return self._a_ways

    @property
    def b_enabled(self) -> bool:
        """True when the B partition is accessible."""
        return self._b_enabled

    @property
    def b_ways(self) -> int:
        """Width of the B partition under the current configuration."""
        if not self._b_enabled:
            return 0
        return self._ways - self._a_ways

    def set_a_ways(self, a_ways: int) -> None:
        """Repartition the cache so the A partition spans *a_ways* ways."""
        if not 1 <= a_ways <= self._ways:
            raise ValueError(f"a_ways must be in [1, {self._ways}], got {a_ways}")
        self._a_ways = a_ways

    def set_b_enabled(self, enabled: bool) -> None:
        """Enable or disable the B partition."""
        self._b_enabled = enabled

    def access(self, address: int) -> AccessOutcome:
        """Access *address* and classify the outcome under the current config.

        The block moves to MRU position 0 (installed on a miss, evicting the
        LRU block of a full set).  The interval counters record the block's
        previous MRU position, or a miss of the whole physical array; the
        probe-width histogram records the A probe and, on an A miss with the
        B partition enabled, the B probe.
        """
        block = address // self._block_bytes
        num_sets = self._num_sets
        index = block % num_sets
        tag = block // num_sets
        stats = self.interval_stats
        stats.accesses += 1
        a_ways = self._a_ways
        profile = self.access_profile
        profile[a_ways] = profile.get(a_ways, 0) + 1
        blocks = self._sets[index]
        if blocks is None:
            self._sets[index] = [tag]
        elif tag in blocks:
            position = blocks.index(tag)
            stats.hits_by_mru_position[position] += 1
            if position:
                del blocks[position]
                blocks.insert(0, tag)
            if position < a_ways:
                return _HIT_A
            if self._b_enabled:
                # The A miss fell through to a B-partition probe, activating
                # the remaining ways of the physical array.
                b_ways = self._ways - a_ways
                profile[b_ways] = profile.get(b_ways, 0) + 1
                return _HIT_B
            return _MISS
        else:
            if len(blocks) >= self._ways:
                blocks.pop()
            blocks.insert(0, tag)
        stats.misses += 1
        if self._b_enabled:
            b_ways = self._ways - a_ways
            if b_ways:
                profile[b_ways] = profile.get(b_ways, 0) + 1
        return _MISS

    def warm(self, addresses: Iterable[int]) -> list[int]:
        """Apply :meth:`access`'s MRU update to each address, counting nothing.

        Returns, in order, the addresses that :meth:`access` would have
        classed ``MISS`` under the current ``a_ways`` and ``b_enabled``: the
        absent blocks and, with the B partition disabled, the blocks found
        beyond the A partition.  Neither the interval counters nor the
        probe-width histogram change.
        """
        block_bytes = self._block_bytes
        num_sets = self._num_sets
        ways = self._ways
        sets = self._sets
        # A present block misses only at or beyond this MRU position.
        reach = ways if self._b_enabled else self._a_ways
        misses: list[int] = []
        miss = misses.append
        for address in addresses:
            block = address // block_bytes
            index = block % num_sets
            tag = block // num_sets
            blocks = sets[index]
            if blocks is None:
                sets[index] = [tag]
                miss(address)
            elif tag in blocks:
                position = blocks.index(tag)
                if position:
                    del blocks[position]
                    blocks.insert(0, tag)
                    if position >= reach:
                        miss(address)
            else:
                if len(blocks) >= ways:
                    blocks.pop()
                blocks.insert(0, tag)
                miss(address)
        return misses

    def reset_interval(self) -> None:
        """Reset the per-interval counters (called by the controller)."""
        self.interval_stats.reset()
