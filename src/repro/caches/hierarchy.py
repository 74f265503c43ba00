"""Load/store-domain cache hierarchy: L1-D + unified L2 + main memory.

The L1 data cache and the L2 are resized together (by ways) and always run at
the same frequency — the load/store domain clock.  Latencies are expressed in
load/store-domain cycles and depend on the active configuration (Table 5 of
the paper); the hierarchy converts them to absolute picosecond completion
times using the period supplied by the caller, so the same object serves both
the MCD machine (whose period changes over time) and the synchronous
baseline.

Instruction-cache misses from the front end also probe the unified L2, through
:meth:`CacheHierarchy.access_l2`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.caches.accounting import AccessOutcome, AccountingCache
from repro.caches.memory import MainMemory
from repro.clocks.time import Picoseconds
from repro.timing.tables import ADAPTIVE_DCACHE_CONFIGS, DCacheL2Config

_HIT_A = AccessOutcome.HIT_A
_HIT_B = AccessOutcome.HIT_B


@dataclass(slots=True)
class HierarchyStats:
    """Aggregate counters over a run."""

    loads: int = 0
    stores: int = 0
    l1_hits_a: int = 0
    l1_hits_b: int = 0
    l1_misses: int = 0
    l2_hits_a: int = 0
    l2_hits_b: int = 0
    l2_misses: int = 0


class CacheHierarchy:
    """The load/store domain's resizable L1-D / L2 pair plus main memory.

    Parameters
    ----------
    config:
        Initial :class:`~repro.timing.tables.DCacheL2Config`.
    b_enabled:
        Whether the B partitions are accessible (phase-adaptive MCD mode) or
        skipped (whole-program and synchronous modes).
    memory:
        Main-memory model; a default one is created if not supplied.
    """

    def __init__(
        self,
        config: DCacheL2Config | None = None,
        *,
        b_enabled: bool = True,
        memory: MainMemory | None = None,
    ) -> None:
        base = ADAPTIVE_DCACHE_CONFIGS[-1]
        self.l1d = AccountingCache(base.l1, a_ways=1, b_enabled=b_enabled, name="L1D")
        self.l2 = AccountingCache(base.l2, a_ways=1, b_enabled=b_enabled, name="L2")
        self.memory = memory if memory is not None else MainMemory()
        self.stats = HierarchyStats()
        self._config = config if config is not None else ADAPTIVE_DCACHE_CONFIGS[0]
        self._b_enabled = b_enabled
        self.apply_config(self._config)

    # ------------------------------------------------------------------ API

    @property
    def config(self) -> DCacheL2Config:
        """Currently applied configuration."""
        return self._config

    def apply_config(self, config: DCacheL2Config) -> None:
        """Repartition the L1-D and L2 according to *config*."""
        self._config = config
        self.l1d.set_a_ways(config.ways)
        self.l2.set_a_ways(config.ways)
        has_b = self._b_enabled and config.l1_latency[1] is not None
        self.l1d.set_b_enabled(has_b)
        has_b_l2 = self._b_enabled and config.l2_latency[1] is not None
        self.l2.set_b_enabled(has_b_l2)

    # -------------------------------------------------------------- accesses

    def access_data(
        self,
        address: int,
        *,
        is_store: bool,
        now_ps: Picoseconds,
        period_ps: Picoseconds,
    ) -> Picoseconds:
        """Access the data hierarchy; return when the data is available (ps)."""
        stats = self.stats
        if is_store:
            stats.stores += 1
        else:
            stats.loads += 1
        l1_a, l1_b = self._config.l1_latency
        outcome = self.l1d.access(address)
        completion = now_ps + l1_a * period_ps
        if outcome is _HIT_A:
            stats.l1_hits_a += 1
            return completion
        if outcome is _HIT_B:
            stats.l1_hits_b += 1
            return completion + (l1_b or 0) * period_ps
        # L1 miss: the full A (+B) probe time was spent before going below.
        stats.l1_misses += 1
        if self.l1d.b_enabled and l1_b is not None:
            completion += l1_b * period_ps
        return self.access_l2(address, completion, period_ps)

    def access_l2(self, address: int, now_ps: Picoseconds, period_ps: Picoseconds) -> Picoseconds:
        """Probe the L2 at *now_ps*, going to memory on a miss; return when
        the block is available (ps).  Serves L1-D misses and the front
        end's I-cache misses alike."""
        stats = self.stats
        l2_a, l2_b = self._config.l2_latency
        outcome = self.l2.access(address)
        completion = now_ps + l2_a * period_ps
        if outcome is _HIT_A:
            stats.l2_hits_a += 1
            return completion
        if outcome is _HIT_B:
            stats.l2_hits_b += 1
            return completion + (l2_b or 0) * period_ps
        stats.l2_misses += 1
        if self.l2.b_enabled and l2_b is not None:
            completion += l2_b * period_ps
        return self.memory.access(address, self.l2.geometry.block_bytes, completion)
